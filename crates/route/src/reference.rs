//! The plain search kernels — the oracle the scratch-reusing kernels are
//! compared against: fresh window-sized arrays per search, every line
//! materialised by `Line::cells()`, the full `src_lines × dst_lines`
//! crossing scan every level, and a Dial bucket array indexed by absolute
//! quantised `f`. This is the code the router ran up to commit 65098fd,
//! verbatim. Test-only; nothing ships from here.

use crate::grid::{neighbours4, DemandGrid, GCell};
use crate::maze::{Path, SearchStats, SearchWindow, SearchWindow as Window};

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
    /// Arena index of the parent line (`None` for level-0 lines).
    parent: Option<usize>,
}

impl Line {
    fn contains(&self, c: GCell) -> bool {
        if self.horizontal {
            c.y == self.origin.y && c.x >= self.lo && c.x <= self.hi
        } else {
            c.x == self.origin.x && c.y >= self.lo && c.y <= self.hi
        }
    }

    fn cells(&self) -> Vec<GCell> {
        if self.horizontal {
            (self.lo..=self.hi).map(|x| GCell::new(x, self.origin.y)).collect()
        } else {
            (self.lo..=self.hi).map(|y| GCell::new(self.origin.x, y)).collect()
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
fn grow<G: DemandGrid>(grid: &G, origin: GCell, horizontal: bool, win: Window) -> Line {
    let (mut lo, mut hi) = if horizontal { (origin.x, origin.x) } else { (origin.y, origin.y) };
    if horizontal {
        while lo > win.x0 && !grid.is_full(GCell::new(lo - 1, origin.y), GCell::new(lo, origin.y)) {
            lo -= 1;
        }
        while hi < win.x1 && !grid.is_full(GCell::new(hi, origin.y), GCell::new(hi + 1, origin.y)) {
            hi += 1;
        }
    } else {
        while lo > win.y0 && !grid.is_full(GCell::new(origin.x, lo - 1), GCell::new(origin.x, lo)) {
            lo -= 1;
        }
        while hi < win.y1 && !grid.is_full(GCell::new(origin.x, hi), GCell::new(origin.x, hi + 1)) {
            hi += 1;
        }
    }
    Line { origin, horizontal, lo, hi, parent: None }
}

/// Walks from `cell` on line `li` back to the search root, emitting the path.
fn trace(arena: &[Line], mut li: usize, mut cell: GCell, out: &mut Vec<GCell>) {
    loop {
        let line = arena[li];
        // Segment from `cell` to the line's origin.
        let seg = segment(cell, line.origin);
        out.extend(seg);
        match line.parent {
            None => break,
            Some(p) => {
                cell = line.origin;
                li = p;
            }
        }
    }
}

/// Cells strictly after `from` up to and including `to`, along one axis.
fn segment(from: GCell, to: GCell) -> Vec<GCell> {
    let mut v = Vec::new();
    if from.x == to.x {
        let (a, b) = (from.y, to.y);
        if a < b {
            for y in a + 1..=b {
                v.push(GCell::new(from.x, y));
            }
        } else {
            for y in (b..a).rev() {
                v.push(GCell::new(from.x, y));
            }
        }
    } else {
        let (a, b) = (from.x, to.x);
        if a < b {
            for x in a + 1..=b {
                v.push(GCell::new(x, from.y));
            }
        } else {
            for x in (b..a).rev() {
                v.push(GCell::new(x, from.y));
            }
        }
    }
    v
}


fn mikami_tabuchi_in<G: DemandGrid>(
    grid: &G,
    src: GCell,
    dst: GCell,
    max_levels: usize,
    win: Window,
) -> Option<(Path, SearchStats)> {
    if src == dst {
        return Some((vec![src], SearchStats { expanded: 0, scratch_cells: 0 }));
    }
    let mut arena: Vec<Line> = Vec::new();
    let mut src_lines: Vec<usize> = Vec::new();
    let mut dst_lines: Vec<usize> = Vec::new();
    let mut expanded = 0usize;
    // Probes are clipped to `win`, so the seen bitmaps only need the
    // window — line search never materializes the full grid.
    debug_assert!(win.contains(src) && win.contains(dst));
    let n = win.area();
    let idx = |c: GCell| win.local_index(c);
    let mut src_seen = vec![false; n];
    let mut dst_seen = vec![false; n];

    for (lines, seen, origin) in
        [(&mut src_lines, &mut src_seen, src), (&mut dst_lines, &mut dst_seen, dst)]
    {
        for horizontal in [true, false] {
            let l = grow(grid, origin, horizontal, win);
            expanded += (l.hi - l.lo + 1) as usize;
            for c in l.cells() {
                seen[idx(c)] = true;
            }
            arena.push(l);
            lines.push(arena.len() - 1);
        }
    }

    let mut src_frontier = src_lines.clone();
    let mut dst_frontier = dst_lines.clone();

    for _level in 0..max_levels {
        // Check crossings between every source line and target line.
        for &si in &src_lines {
            for &di in &dst_lines {
                if let Some(x) = arena[si].crosses(&arena[di]) {
                    let mut fwd = Vec::new();
                    trace(&arena, si, x, &mut fwd);
                    fwd.reverse();
                    let mut path = vec![src];
                    // fwd currently runs src -> x (after reverse it starts
                    // just after src).
                    path.extend(fwd.into_iter().skip_while(|&c| c == src));
                    if *path.last().unwrap() != x {
                        path.push(x);
                    }
                    let mut bwd = Vec::new();
                    trace(&arena, di, x, &mut bwd);
                    path.extend(bwd);
                    dedup_path(&mut path);
                    return Some((path, SearchStats { expanded, scratch_cells: n }));
                }
                // A target line passing exactly through src (or vice versa).
                if arena[di].contains(src) {
                    let mut path = vec![src];
                    let mut bwd = Vec::new();
                    trace(&arena, di, src, &mut bwd);
                    path.extend(bwd);
                    dedup_path(&mut path);
                    return Some((path, SearchStats { expanded, scratch_cells: n }));
                }
                if arena[si].contains(dst) {
                    let mut fwd = Vec::new();
                    trace(&arena, si, dst, &mut fwd);
                    fwd.reverse();
                    let mut path = vec![src];
                    path.extend(fwd.into_iter().skip_while(|&c| c == src));
                    if *path.last().unwrap() != dst {
                        path.push(dst);
                    }
                    dedup_path(&mut path);
                    return Some((path, SearchStats { expanded, scratch_cells: n }));
                }
            }
        }
        // Expand: spawn perpendicular lines from every cell of the frontier.
        let spawn = |frontier: &mut Vec<usize>,
                         lines: &mut Vec<usize>,
                         seen: &mut Vec<bool>,
                         arena: &mut Vec<Line>,
                         expanded: &mut usize| {
            let mut next = Vec::new();
            for &li in frontier.iter() {
                let parent = arena[li];
                for c in parent.cells() {
                    let mut l = grow(grid, c, !parent.horizontal, win);
                    l.parent = Some(li);
                    // Skip degenerate or fully-seen lines.
                    let novel = l.cells().iter().any(|&cc| !seen[idx(cc)]);
                    if !novel {
                        continue;
                    }
                    *expanded += (l.hi - l.lo + 1) as usize;
                    for cc in l.cells() {
                        seen[idx(cc)] = true;
                    }
                    arena.push(l);
                    next.push(arena.len() - 1);
                    lines.push(arena.len() - 1);
                }
            }
            *frontier = next;
        };
        spawn(&mut src_frontier, &mut src_lines, &mut src_seen, &mut arena, &mut expanded);
        spawn(&mut dst_frontier, &mut dst_lines, &mut dst_seen, &mut arena, &mut expanded);
        if src_frontier.is_empty() && dst_frontier.is_empty() {
            break;
        }
    }
    None
}

/// Removes consecutive duplicates and immediate backtracks.
pub fn dedup_path(path: &mut Vec<GCell>) {
    path.dedup();
    // Remove A-B-A stutters introduced by pivot tracing.
    let mut i = 0;
    while i + 2 < path.len() {
        if path[i] == path[i + 2] {
            path.remove(i + 1);
            path.remove(i + 1);
            i = i.saturating_sub(1);
        } else {
            i += 1;
        }
    }
}

fn lee_bfs_in<G: DemandGrid>(
    grid: &G,
    src: GCell,
    dst: GCell,
    win: SearchWindow,
) -> Option<(Path, SearchStats)> {
    debug_assert!(win.contains(src) && win.contains(dst));
    if src == dst {
        return Some((vec![src], SearchStats { expanded: 0, scratch_cells: 0 }));
    }
    let idx = |c: GCell| win.local_index(c);
    let scratch = win.area();
    let mut prev: Vec<Option<GCell>> = vec![None; scratch];
    let mut visited = vec![false; scratch];
    visited[idx(src)] = true;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(src);
    let mut expanded = 0usize;
    while let Some(c) = queue.pop_front() {
        expanded += 1;
        if c == dst {
            break;
        }
        for n in neighbours4(grid.width(), grid.height(), c) {
            if win.contains(n) && !visited[idx(n)] {
                visited[idx(n)] = true;
                prev[idx(n)] = Some(c);
                queue.push_back(n);
            }
        }
    }
    if !visited[idx(dst)] {
        return None;
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while let Some(p) = prev[idx(cur)] {
        path.push(p);
        cur = p;
    }
    path.reverse();
    Some((path, SearchStats { expanded, scratch_cells: scratch }))
}

const DIAL_SCALE: f64 = 64.0;

/// Dial's bucket queue: entries land in the bucket of their (quantized)
/// f-value and a cursor sweeps the buckets in order. With a consistent
/// heuristic the cursor never moves backwards, so push and pop are O(1) —
/// no comparisons, no sift-up/down, and far better cache behavior than a
/// binary heap on the router's hot path.
struct BucketQueue {
    buckets: Vec<Vec<(u64, GCell)>>,
    cursor: usize,
}

impl BucketQueue {
    fn new() -> BucketQueue {
        BucketQueue { buckets: Vec::new(), cursor: 0 }
    }

    fn push(&mut self, f: u64, g: u64, cell: GCell) {
        let i = f as usize;
        if i >= self.buckets.len() {
            self.buckets.resize_with(i + 1, Vec::new);
        }
        self.buckets[i].push((g, cell));
        // Monotonicity safety net: a consistent heuristic never needs this,
        // but a rewind beats a silently skipped entry if it ever breaks.
        self.cursor = self.cursor.min(i);
    }

    fn pop(&mut self) -> Option<(u64, GCell)> {
        while self.cursor < self.buckets.len() {
            if let Some(e) = self.buckets[self.cursor].pop() {
                return Some(e);
            }
            self.cursor += 1;
        }
        None
    }
}

fn astar_in<G: DemandGrid>(
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
    let n = win.area();
    let idx = |c: GCell| win.local_index(c);
    let quant = |c: f64| (c * DIAL_SCALE).round() as u64;
    let h = |c: GCell| c.manhattan(&dst) as u64 * DIAL_SCALE as u64;
    let mut best_g = vec![u64::MAX; n];
    // prev stores the previous cell for path reconstruction.
    let mut prev: Vec<Option<GCell>> = vec![None; n];
    let mut queue = BucketQueue::new();
    best_g[idx(src)] = 0;
    queue.push(h(src), 0, src);
    let mut expanded = 0usize;
    while let Some((g, cell)) = queue.pop() {
        if g > best_g[idx(cell)] {
            continue;
        }
        expanded += 1;
        if cell == dst {
            break;
        }
        let came_from = prev[idx(cell)];
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
            if ng < best_g[idx(nb)] {
                best_g[idx(nb)] = ng;
                prev[idx(nb)] = Some(cell);
                queue.push(ng + h(nb), ng, nb);
            }
        }
    }
    if best_g[idx(dst)] == u64::MAX {
        return None;
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while let Some(p) = prev[idx(cur)] {
        path.push(p);
        cur = p;
        if cur == src {
            break;
        }
    }
    path.reverse();
    Some((path, SearchStats { expanded, scratch_cells: n }))
}

/// Differential oracles: the shipping kernels must return exactly what the
/// kernels above return — path *and* stats — on every input.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{free_run_by_edge, RoutingGrid};
    use crate::region::OverlayGrid;
    use crate::rules::RuleDeck;
    use crate::scratch::SearchScratch;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Debug, Clone, Copy)]
    enum Demand {
        Empty,
        /// Each edge is at capacity (a wall to line search) with this
        /// probability, one track short of it otherwise.
        Walls(f64),
        /// The coarse-retry regime: every edge at 20–40 × capacity, history
        /// bumped six times.
        Saturated,
    }

    const DEMANDS: [Demand; 5] = [
        Demand::Empty,
        Demand::Walls(0.1),
        Demand::Walls(0.25),
        Demand::Walls(0.4),
        Demand::Saturated,
    ];

    fn edges(w: u32, h: u32) -> impl Iterator<Item = (GCell, GCell)> {
        let across = (0..h).flat_map(move |y| (0..w - 1).map(move |x| (GCell::new(x, y), GCell::new(x + 1, y))));
        let up = (0..h - 1).flat_map(move |y| (0..w).map(move |x| (GCell::new(x, y), GCell::new(x, y + 1))));
        across.chain(up)
    }

    fn random_grid(rng: &mut StdRng, w: u32, h: u32, demand: Demand) -> RoutingGrid {
        let mut g = RoutingGrid::new(w, h, &RuleDeck::simple(rng.gen_range(2..=6)));
        for (a, b) in edges(w, h) {
            let cap = if a.y == b.y { g.cap_h } else { g.cap_v } as i32;
            let usage = match demand {
                Demand::Empty => 0,
                Demand::Walls(p) => cap - 1 + rng.gen_bool(p) as i32,
                Demand::Saturated => cap * rng.gen_range(20..=40),
            };
            g.add_usage(a, b, usage);
        }
        if matches!(demand, Demand::Saturated) {
            for _ in 0..6 {
                g.bump_history();
            }
        }
        g
    }

    type Rect = (u32, u32, u32, u32);

    fn random_rect(rng: &mut StdRng, w: u32, h: u32) -> Rect {
        let (x0, y0) = (rng.gen_range(0..w - 1), rng.gen_range(0..h - 1));
        (x0, y0, rng.gen_range(x0 + 1..w), rng.gen_range(y0 + 1..h))
    }

    fn random_cell(rng: &mut StdRng, (x0, y0, x1, y1): Rect) -> GCell {
        GCell::new(rng.gen_range(x0..=x1), rng.gen_range(y0..=y1))
    }

    /// A random walk that never leaves `rect` — a committable "path".
    fn random_walk(rng: &mut StdRng, rect: Rect, steps: usize) -> Path {
        let mut at = random_cell(rng, rect);
        let mut path = vec![at];
        for _ in 0..steps {
            let next = match rng.gen_range(0..4) {
                0 if at.x > rect.0 => GCell::new(at.x - 1, at.y),
                1 if at.x < rect.2 => GCell::new(at.x + 1, at.y),
                2 if at.y > rect.1 => GCell::new(at.x, at.y - 1),
                3 if at.y < rect.3 => GCell::new(at.x, at.y + 1),
                _ => continue,
            };
            path.push(next);
            at = next;
        }
        path
    }

    /// A base grid plus the rectangle, victims (already committed in the
    /// base, to be `uncommit`ted) and local routes of an overlay over it.
    struct OverlayCase {
        base: RoutingGrid,
        rect: Rect,
        victims: Vec<Path>,
        locals: Vec<Path>,
    }

    impl OverlayCase {
        fn random(rng: &mut StdRng, w: u32, h: u32, demand: Demand) -> OverlayCase {
            let mut base = random_grid(rng, w, h, demand);
            let rect = random_rect(rng, w, h);
            let victims: Vec<Path> = (0..rng.gen_range(0..4)).map(|_| random_walk(rng, rect, 12)).collect();
            for v in &victims {
                for e in v.windows(2) {
                    base.add_usage(e[0], e[1], 1);
                }
            }
            let locals = (0..rng.gen_range(0..6)).map(|_| random_walk(rng, rect, 12)).collect();
            OverlayCase { base, rect, victims, locals }
        }

        fn overlay(&self) -> OverlayGrid<'_> {
            let mut o = OverlayGrid::new(&self.base, self.rect);
            for v in &self.victims {
                o.uncommit(v);
            }
            for l in &self.locals {
                o.commit(l);
            }
            o
        }
    }

    fn clip(win: SearchWindow, (x0, y0, x1, y1): Rect) -> SearchWindow {
        SearchWindow { x0: win.x0.max(x0), y0: win.y0.max(y0), x1: win.x1.min(x1), y1: win.y1.min(y1) }
    }

    /// A wide (even `case`) or tall grid: its long rows (columns) take two
    /// or three words of full-edge bits, where every other case's fit one.
    fn long_dims(rng: &mut StdRng, case: usize) -> (u32, u32) {
        let (long, short) = (rng.gen_range(130..=150), rng.gen_range(3..12));
        if case.is_multiple_of(2) {
            (long, short)
        } else {
            (short, long)
        }
    }

    /// Tallies, per word boundary at bit 64 and 128, whether the edges
    /// between the rectangle's cells cross it along x or y.
    fn count_crossings((x0, y0, x1, y1): Rect, into: &mut [usize; 2]) {
        for (n, at) in into.iter_mut().zip([64, 128]) {
            *n += ((x0 < at && at < x1) || (y0 < at && at < y1)) as usize;
        }
    }

    /// How the line searches of a test ended, by the lowest level limit
    /// that succeeds.
    #[derive(Debug, Default)]
    struct Tally {
        level0: usize,
        level1: usize,
        deeper: usize,
        failed: usize,
    }

    /// Every search, new against old, for one connection on one view.
    fn assert_same<G: DemandGrid>(
        grid: &G,
        src: GCell,
        dst: GCell,
        win: SearchWindow,
        scratch: &mut SearchScratch,
        tally: &mut Tally,
    ) {
        let tag = format!("{src:?}->{dst:?} in {win:?}");
        let mut solved_at = None;
        for levels in [1, 2, 3, 5, 12] {
            let new = scratch.mikami_tabuchi_in(grid, src, dst, levels, win);
            assert_eq!(new, mikami_tabuchi_in(grid, src, dst, levels, win), "line search x{levels} {tag}");
            if let Some((path, _)) = &new {
                assert_eq!(path.capacity(), path.len(), "committed paths carry no slack");
                solved_at.get_or_insert(levels);
            }
        }
        match solved_at {
            Some(1) => tally.level0 += 1,
            Some(2) => tally.level1 += 1,
            Some(_) => tally.deeper += 1,
            None => tally.failed += 1,
        }
        for via_cost in [0.0, 1.0, 2.5] {
            let new = scratch.astar_in(grid, src, dst, via_cost, win);
            assert_eq!(new, astar_in(grid, src, dst, via_cost, win), "A* via {via_cost} {tag}");
            let (path, _) = new.expect("no hard obstacles");
            assert_eq!(path.capacity(), path.len(), "committed paths carry no slack");
        }
        assert_eq!(scratch.lee_bfs_in(grid, src, dst, win), lee_bfs_in(grid, src, dst, win), "Lee {tag}");
    }

    #[test]
    fn kernels_match_the_reference_on_the_committed_grid() {
        let mut rng = StdRng::seed_from_u64(16);
        let mut scratch = SearchScratch::new();
        let mut tally = Tally::default();
        for case in 0..150 {
            let (w, h) = (rng.gen_range(2..28), rng.gen_range(2..28));
            let grid = random_grid(&mut rng, w, h, DEMANDS[case % DEMANDS.len()]);
            for _ in 0..6 {
                let all = (0, 0, w - 1, h - 1);
                let (src, dst) = (random_cell(&mut rng, all), random_cell(&mut rng, all));
                let win = SearchWindow::around(src, dst, rng.gen_range(0..10), &grid);
                assert_same(&grid, src, dst, win, &mut scratch, &mut tally);
            }
            let pin = GCell::new(w / 2, h / 2);
            assert_same(&grid, pin, pin, SearchWindow::full(&grid), &mut scratch, &mut tally);
        }
        // Probes whose clip crosses a word of full-edge bits.
        let mut crossed = [0; 2];
        for case in 0..20 {
            let (w, h) = long_dims(&mut rng, case);
            let grid = random_grid(&mut rng, w, h, DEMANDS[case % DEMANDS.len()]);
            for _ in 0..3 {
                let all = (0, 0, w - 1, h - 1);
                let (src, dst) = (random_cell(&mut rng, all), random_cell(&mut rng, all));
                let win = SearchWindow::around(src, dst, rng.gen_range(0..10), &grid);
                count_crossings((win.x0, win.y0, win.x1, win.y1), &mut crossed);
                assert_same(&grid, src, dst, win, &mut scratch, &mut tally);
            }
        }
        assert!(crossed[0] > 30 && crossed[1] > 8, "windows crossing bits 64, 128: {crossed:?}");
        // The inputs reach every regime the router sees: crossings at level
        // 0 and 1, deep successes, and level-limit failures.
        assert!(
            tally.level0 > 100 && tally.level1 > 50 && tally.deeper > 50 && tally.failed > 50,
            "{tally:?}"
        );
    }

    #[test]
    fn kernels_match_the_reference_on_overlays_inside_and_across_the_rectangle() {
        let mut rng = StdRng::seed_from_u64(1601);
        let mut scratch = SearchScratch::new();
        let mut tally = Tally::default();
        let (mut inside, mut straddling) = (0, 0);
        // Rectangles and interior clips crossing a word of full-edge bits.
        let (mut rects, mut clips) = ([0; 2], [0; 2]);
        for case in 0..140 {
            let (w, h) = if case < 120 {
                (rng.gen_range(4..26), rng.gen_range(4..26))
            } else {
                long_dims(&mut rng, case)
            };
            let oc = OverlayCase::random(&mut rng, w, h, DEMANDS[case % DEMANDS.len()]);
            count_crossings(oc.rect, &mut rects);
            let overlay = oc.overlay();
            for _ in 0..3 {
                // An interior connection: window inside the rectangle.
                let (src, dst) = (random_cell(&mut rng, oc.rect), random_cell(&mut rng, oc.rect));
                let win = clip(SearchWindow::around(src, dst, rng.gen_range(0..8), &oc.base), oc.rect);
                count_crossings((win.x0, win.y0, win.x1, win.y1), &mut clips);
                assert_same(&overlay, src, dst, win, &mut scratch, &mut tally);
                inside += 1;
                // Any connection: the window may straddle or miss it.
                let all = (0, 0, w - 1, h - 1);
                let (src, dst) = (random_cell(&mut rng, all), random_cell(&mut rng, all));
                let win = SearchWindow::around(src, dst, rng.gen_range(0..8), &oc.base);
                straddling += (clip(win, oc.rect) != win) as usize;
                assert_same(&overlay, src, dst, win, &mut scratch, &mut tally);
            }
        }
        assert!(inside > 300 && straddling > 200, "{inside} inside, {straddling} straddling");
        assert!(rects[0] > 6 && rects[1] > 5 && clips[0] > 10 && clips[1] > 6, "{rects:?} {clips:?}");
        assert!(tally.level1 > 30 && tally.deeper > 30 && tally.failed > 30, "{tally:?}");
    }

    /// A view every edge of which fills up after a number of `is_full`
    /// queries. Probes are symmetric on a fixed view — a source line reaches
    /// the target pin only if the target's own line reaches back, which the
    /// scan finds first — so a view that changes mid-search is the only way
    /// to the "source line through the target pin" ending.
    struct ClosingGrid {
        open_for: usize,
        queries: AtomicUsize,
    }

    impl DemandGrid for ClosingGrid {
        fn width(&self) -> u32 {
            24
        }
        fn height(&self) -> u32 {
            24
        }
        fn step_cost(&self, _: GCell, _: GCell) -> f64 {
            1.0
        }
        fn is_full(&self, _: GCell, _: GCell) -> bool {
            self.queries.fetch_add(1, Ordering::Relaxed) >= self.open_for
        }
    }

    #[test]
    fn all_three_meeting_shapes_match_the_reference() {
        let grid = RoutingGrid::new(24, 24, &RuleDeck::simple(6));
        let mut scratch = SearchScratch::new();
        // Crossing lines: an L on the empty grid.
        let (src, dst) = (GCell::new(2, 3), GCell::new(18, 15));
        let win = SearchWindow::full(&grid);
        let cross = scratch.mikami_tabuchi_in(&grid, src, dst, 4, win);
        assert_eq!(cross, mikami_tabuchi_in(&grid, src, dst, 4, win));
        assert_eq!(cross.unwrap().0.len(), 16 + 12 + 1);
        // Target line through the source pin: collinear pins.
        let (src, dst) = (GCell::new(2, 7), GCell::new(20, 7));
        let through_src = scratch.mikami_tabuchi_in(&grid, src, dst, 4, win);
        assert_eq!(through_src, mikami_tabuchi_in(&grid, src, dst, 4, win));
        assert_eq!(through_src.unwrap().0.len(), 19);
        // Source line through the target pin: the same pins on a view that
        // closes once the source's two probes (23 + 23 edges) are grown, so
        // the target's probes are single cells.
        let closing = || ClosingGrid { open_for: 46, queries: AtomicUsize::new(0) };
        let through_dst = scratch.mikami_tabuchi_in(&closing(), src, dst, 4, win);
        assert_eq!(through_dst, mikami_tabuchi_in(&closing(), src, dst, 4, win));
        let (path, stats) = through_dst.unwrap();
        assert_eq!((path.len(), stats.expanded), (19, 24 + 24 + 1 + 1));
    }

    #[test]
    fn a_heavily_reused_scratch_answers_like_a_fresh_one() {
        let mut rng = StdRng::seed_from_u64(160);
        let mut used = SearchScratch::new();
        // 10^4 prior searches over windows of every size and shape, all
        // regimes and all three kernels. (Nothing to wrap: the scratch is
        // reset by walking what each search touched, not by a generation
        // stamp.)
        for round in 0..100 {
            let (w, h) = (rng.gen_range(2..40), rng.gen_range(2..40));
            let grid = random_grid(&mut rng, w, h, DEMANDS[round % DEMANDS.len()]);
            let all = (0, 0, w - 1, h - 1);
            for _ in 0..34 {
                let (src, dst) = (random_cell(&mut rng, all), random_cell(&mut rng, all));
                let win = SearchWindow::around(src, dst, rng.gen_range(0..12), &grid);
                used.mikami_tabuchi_in(&grid, src, dst, 12, win);
                used.astar_in(&grid, src, dst, 1.0, win);
                used.lee_bfs_in(&grid, src, dst, win);
            }
        }
        for round in 0..40 {
            let (w, h) = (rng.gen_range(2..30), rng.gen_range(2..30));
            let grid = random_grid(&mut rng, w, h, DEMANDS[round % DEMANDS.len()]);
            let all = (0, 0, w - 1, h - 1);
            let (src, dst) = (random_cell(&mut rng, all), random_cell(&mut rng, all));
            let win = SearchWindow::around(src, dst, rng.gen_range(0..12), &grid);
            let mut fresh = SearchScratch::new();
            assert_eq!(
                used.mikami_tabuchi_in(&grid, src, dst, 12, win),
                fresh.mikami_tabuchi_in(&grid, src, dst, 12, win)
            );
            assert_eq!(used.astar_in(&grid, src, dst, 1.0, win), fresh.astar_in(&grid, src, dst, 1.0, win));
            assert_eq!(used.lee_bfs_in(&grid, src, dst, win), fresh.lee_bfs_in(&grid, src, dst, win));
        }
    }

    #[test]
    fn free_run_equals_the_edge_by_edge_walk_on_both_views() {
        let mut rng = StdRng::seed_from_u64(1600);
        // Rectangles crossing bit 64 and 128, and ones starting past bit 64
        // (their masks' first word is the base row's second or third).
        let (mut rects, mut late, mut inside) = ([0; 2], 0, [0; 2]);
        for case in 0..80 {
            let (w, h) =
                if case < 60 { (rng.gen_range(3..20), rng.gen_range(3..20)) } else { long_dims(&mut rng, case) };
            let oc = OverlayCase::random(&mut rng, w, h, DEMANDS[1 + case % 3]);
            let (x0, y0, x1, y1) = oc.rect;
            count_crossings(oc.rect, &mut rects);
            late += (x0 >= 64 || y0 >= 64) as usize;
            let overlay = oc.overlay();
            for y in 0..h {
                for x in 0..w {
                    let c = GCell::new(x, y);
                    for horizontal in [true, false] {
                        let (at, end) = if horizontal { (x, w - 1) } else { (y, h - 1) };
                        // The whole axis, a random clip around the cell
                        // (inside, across and outside the overlay rectangle),
                        // and for a cell in the rectangle a clip inside it.
                        let mut runs = vec![(0, end), (rng.gen_range(0..=at), rng.gen_range(at..=end))];
                        if (x0..=x1).contains(&x) && (y0..=y1).contains(&y) {
                            let (lo, hi) = if horizontal { (x0, x1) } else { (y0, y1) };
                            let (min, max) = (rng.gen_range(lo..=at), rng.gen_range(at..=hi));
                            count_crossings((min, 0, max, 0), &mut inside);
                            runs.push((min, max));
                        }
                        for (min, max) in runs {
                            assert_eq!(
                                oc.base.free_run(c, horizontal, min, max),
                                free_run_by_edge(&oc.base, c, horizontal, min, max),
                                "grid {c:?} h={horizontal} {min}..={max}"
                            );
                            assert_eq!(
                                overlay.free_run(c, horizontal, min, max),
                                free_run_by_edge(&overlay, c, horizontal, min, max),
                                "overlay {:?} {c:?} h={horizontal} {min}..={max}",
                                oc.rect
                            );
                        }
                    }
                }
            }
        }
        assert!(rects[0] > 6 && rects[1] > 3 && late > 8, "rects {rects:?}, {late} past bit 64");
        assert!(inside[0] > 800 && inside[1] > 200, "in-rectangle clips crossing 64, 128: {inside:?}");
    }

    #[test]
    fn one_pass_dedup_equals_the_remove_loop() {
        let mut rng = StdRng::seed_from_u64(161);
        for _ in 0..2000 {
            // Few distinct cells, so duplicates and A-B-A stutters abound.
            let len = rng.gen_range(0..14);
            let path: Path = (0..len).map(|_| GCell::new(rng.gen_range(0..3), 0)).collect();
            let (mut old, mut new) = (path.clone(), path.clone());
            dedup_path(&mut old);
            crate::linesearch::dedup_path(&mut new);
            assert_eq!(new, old, "{path:?}");
        }
    }
}
