//! Region-partitioned routing: grid tiling, private demand overlays, and
//! the deterministic seam-negotiation wave scheduler.
//!
//! The router tiles the grid into fixed-size regions — a pure function of
//! the grid dimensions and the `region_size` knob, never of the thread
//! count. Each connection's search window overlaps one region (an
//! *interior* connection, searched and committed against a private
//! [`OverlayGrid`] with no cross-worker synchronization) or several (a
//! *seam-crossing* connection, admitted only through the negotiation
//! protocol below).
//!
//! # Seam negotiation protocol and determinism argument
//!
//! Connections carry a **canonical rank** (the congestion-aware initial
//! order). Every region keeps a FIFO queue of the connections whose
//! windows overlap it, in rank order. A wave admits, per region scan in
//! fixed region order:
//!
//! * the maximal run of interior connections at the head of the region's
//!   queue — one batch task, routed against the region's overlay so each
//!   sees its predecessors' local commits;
//! * a seam-crossing connection only when it heads the queue of **every**
//!   region it overlaps, claimed by its lowest-numbered region — one
//!   singleton task routed against the committed global grid.
//!
//! Heads only advance after the wave's results are committed, so wave
//! composition is frozen while workers run. Two tasks in one wave never
//! share a region, and a search only touches edges whose endpoints lie in
//! its window, so tasks in a wave are edge-disjoint: any order of
//! execution yields the state the canonical serial schedule would. The
//! unfinished connection of minimal rank always heads every queue it
//! belongs to (everything queued before it has lower rank, hence is
//! done), so every wave makes progress — no deadlock. Consequently the
//! routed result is **bit-identical to routing the connections one by one
//! in canonical rank order**, for any region size and any thread count;
//! the partition shapes only the schedule, never the answer.
//!
//! # Rip-up semantics
//!
//! Rip-up rounds run the victims through the same wave machinery, with
//! one rule: a victim's old path stays committed in the shared grid until
//! the victim's own canonical commit slot, where it is swapped for the
//! new path. The re-route's search view subtracts only the victim's *own*
//! old demand (via [`OverlayGrid::uncommit`]), so every re-route still
//! sees all later victims' old paths exactly as the serial schedule
//! would. Uncommitting every victim up front instead would empty the
//! congested area wholesale and let each re-route re-take the same
//! shortest paths — the oscillation that keeps large decks from ever
//! converging. (A victim's old path lies inside its search window — the
//! window is a pure function of the connection — so the subtraction
//! always fits the overlay rectangle.)

use crate::grid::{
    free_run_by_edge, free_run_in, put_bit, step_cost_from, DemandGrid, GCell, RoutingGrid,
};
use crate::maze::{Path, SearchWindow};

/// A fixed tiling of the routing grid into square regions (clipped at the
/// high edges). Pure function of the grid dimensions and `size`.
#[derive(Debug, Clone, Copy)]
pub struct RegionMap {
    /// Grid width in g-cells.
    pub width: u32,
    /// Grid height in g-cells.
    pub height: u32,
    /// Region side length in g-cells.
    pub size: u32,
    /// Regions per row.
    pub cols: u32,
    /// Regions per column.
    pub rows: u32,
}

impl RegionMap {
    /// Tiles a `width × height` grid into `size × size` regions.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(width: u32, height: u32, size: u32) -> RegionMap {
        assert!(size > 0, "region size must be positive");
        RegionMap { width, height, size, cols: width.div_ceil(size), rows: height.div_ceil(size) }
    }

    /// Number of regions in the tiling.
    pub fn count(&self) -> usize {
        (self.cols * self.rows) as usize
    }

    /// The inclusive cell rectangle of region `r` (row-major numbering).
    pub fn rect(&self, r: u32) -> (u32, u32, u32, u32) {
        let rx = r % self.cols;
        let ry = r / self.cols;
        let x0 = rx * self.size;
        let y0 = ry * self.size;
        (x0, y0, (x0 + self.size - 1).min(self.width - 1), (y0 + self.size - 1).min(self.height - 1))
    }

    /// The inclusive region-coordinate span a search window overlaps.
    pub fn span(&self, win: &SearchWindow) -> RegionSpan {
        RegionSpan {
            rx0: (win.x0 / self.size) as u16,
            ry0: (win.y0 / self.size) as u16,
            rx1: (win.x1 / self.size) as u16,
            ry1: (win.y1 / self.size) as u16,
        }
    }
}

/// The rectangle of regions one connection's search window overlaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionSpan {
    rx0: u16,
    ry0: u16,
    rx1: u16,
    ry1: u16,
}

impl RegionSpan {
    /// Whether the span covers exactly one region.
    pub fn interior(&self) -> bool {
        self.rx0 == self.rx1 && self.ry0 == self.ry1
    }

    /// Number of regions covered.
    pub fn count(&self) -> usize {
        (self.rx1 - self.rx0 + 1) as usize * (self.ry1 - self.ry0 + 1) as usize
    }

    /// Row-major region indices covered, lowest first.
    pub fn regions(&self, map: &RegionMap) -> impl Iterator<Item = u32> + '_ {
        let cols = map.cols;
        (self.ry0..=self.ry1).flat_map(move |ry| {
            (self.rx0..=self.rx1).map(move |rx| ry as u32 * cols + rx as u32)
        })
    }

    /// The lowest-numbered covered region — the seam connection's owner.
    pub fn min_region(&self, map: &RegionMap) -> u32 {
        self.ry0 as u32 * map.cols + self.rx0 as u32
    }
}

/// The delta storage of an [`OverlayGrid`]. All-zero whenever no overlay
/// holds it, so a route task can lend it to one overlay after another —
/// sized to the largest rectangle seen — without allocating or zeroing a
/// region per task.
#[derive(Default, PartialEq)]
pub(crate) struct OverlayBuffers {
    dh: Vec<i32>,
    dv: Vec<i32>,
    /// One bit per edge of `dh` / `dv`, in the base grid's word layout over
    /// the rectangle's rows (columns): `dirty` when the delta is nonzero,
    /// `over` when it is and `base + delta >= cap`. Zero wherever the
    /// deltas are.
    dirty_h: Vec<u64>,
    over_h: Vec<u64>,
    dirty_v: Vec<u64>,
    over_v: Vec<u64>,
}

impl OverlayBuffers {
    /// Whether every delta and mask is zero — the state an overlay must
    /// hand back.
    pub(crate) fn is_zero(&self) -> bool {
        self.dh.iter().chain(&self.dv).all(|&d| d == 0)
            && [&self.dirty_h, &self.over_h, &self.dirty_v, &self.over_v]
                .iter()
                .all(|m| m.iter().all(|&w| w == 0))
    }

    /// Bytes of heap held.
    pub(crate) fn heap_bytes(&self) -> usize {
        let masks = [&self.dirty_h, &self.over_h, &self.dirty_v, &self.over_v];
        (self.dh.capacity() + self.dv.capacity()) * std::mem::size_of::<i32>()
            + masks.iter().map(|m| m.capacity()).sum::<usize>() * std::mem::size_of::<u64>()
    }
}

/// A region's private demand view: the committed global grid plus this
/// region's uncommitted local routes, held as per-edge deltas over the
/// region's cell rectangle. Cost and fullness come from the same
/// [`step_cost_from`] expression as [`RoutingGrid`], so a search against
/// an overlay with the deltas a serial router would already have
/// committed returns the bit-identical path.
pub struct OverlayGrid<'a> {
    base: &'a RoutingGrid,
    x0: u32,
    y0: u32,
    x1: u32,
    y1: u32,
    /// `dh`: delta on horizontal edge `(x, y)→(x+1, y)`, both endpoints
    /// inside the rectangle, row-major: index `(y - y0) * (x1 - x0) + (x -
    /// x0)`. Signed: a rip-up victim's old demand is subtracted here before
    /// its re-route searches, so the view matches the serial schedule's grid
    /// exactly. `dv`: delta on vertical edge `(x, y)→(x, y+1)`,
    /// column-major: `(x - x0) * (y1 - y0) + (y - y0)`. The masks take
    /// `h_words` words per row and `v_words` per column.
    buf: OverlayBuffers,
}

impl<'a> OverlayGrid<'a> {
    /// An overlay over the inclusive cell rectangle `(x0, y0, x1, y1)`.
    pub fn new(base: &'a RoutingGrid, rect: (u32, u32, u32, u32)) -> OverlayGrid<'a> {
        OverlayGrid::with_buffers(base, rect, OverlayBuffers::default())
    }

    /// [`OverlayGrid::new`] on borrowed, all-zero delta buffers; hand them
    /// back all-zero through [`OverlayGrid::into_buffers`]. The base grid
    /// cannot change while the overlay lives, so the masks stay exact.
    pub(crate) fn with_buffers(
        base: &'a RoutingGrid,
        rect: (u32, u32, u32, u32),
        buffers: OverlayBuffers,
    ) -> OverlayGrid<'a> {
        let (x0, y0, x1, y1) = rect;
        debug_assert!(x1 < base.width && y1 < base.height && x0 <= x1 && y0 <= y1);
        debug_assert!(buffers.is_zero(), "overlay buffers lent with a nonzero delta");
        let mut o = OverlayGrid { base, x0, y0, x1, y1, buf: buffers };
        let (rw, rh) = ((x1 - x0 + 1) as usize, (y1 - y0 + 1) as usize);
        let (hw, vw) = (o.h_words().1 * rh, o.v_words().1 * rw);
        let b = &mut o.buf;
        b.dh.resize((rw - 1) * rh, 0);
        b.dv.resize(rw * (rh - 1), 0);
        b.dirty_h.resize(hw, 0);
        b.over_h.resize(hw, 0);
        b.dirty_v.resize(vw, 0);
        b.over_v.resize(vw, 0);
        o
    }

    /// The delta buffers, for the next overlay. The caller has undone every
    /// commit and uncommit first, so they are all-zero again.
    pub(crate) fn into_buffers(self) -> OverlayBuffers {
        self.buf
    }

    /// The base grid's words a rectangle row's horizontal edges fall in:
    /// `(first, count)`.
    fn h_words(&self) -> (usize, usize) {
        words_spanned(self.x0, self.x1)
    }

    /// The base grid's words a rectangle column's vertical edges fall in.
    fn v_words(&self) -> (usize, usize) {
        words_spanned(self.y0, self.y1)
    }

    /// Index into `dh` of the horizontal edge from `(x, y)`.
    fn h_at(&self, x: u32, y: u32) -> usize {
        ((y - self.y0) * (self.x1 - self.x0) + (x - self.x0)) as usize
    }

    /// Index into `dv` of the vertical edge from `(x, y)`.
    fn v_at(&self, x: u32, y: u32) -> usize {
        ((x - self.x0) * (self.y1 - self.y0) + (y - self.y0)) as usize
    }

    /// Bit of the horizontal masks for the edge from `(x, y)`.
    fn h_bit(&self, x: u32, y: u32) -> usize {
        let (first, count) = self.h_words();
        ((y - self.y0) as usize * count + (x / 64) as usize - first) * 64 + (x % 64) as usize
    }

    /// Bit of the vertical masks for the edge from `(x, y)`.
    fn v_bit(&self, x: u32, y: u32) -> usize {
        let (first, count) = self.v_words();
        ((x - self.x0) as usize * count + (y / 64) as usize - first) * 64 + (y % 64) as usize
    }

    /// Local delta on the edge between adjacent cells (0 outside the rect).
    fn delta(&self, a: GCell, b: GCell) -> i32 {
        if a.y == b.y {
            let x = a.x.min(b.x);
            if x >= self.x0 && x < self.x1 && a.y >= self.y0 && a.y <= self.y1 {
                return self.buf.dh[self.h_at(x, a.y)];
            }
        } else {
            let y = a.y.min(b.y);
            if a.x >= self.x0 && a.x <= self.x1 && y >= self.y0 && y < self.y1 {
                return self.buf.dv[self.v_at(a.x, y)];
            }
        }
        0
    }

    /// The base usage plus this overlay's delta on one edge. Never actually
    /// negative in a legal schedule (a subtracted path was committed in the
    /// base first); the clamp keeps a corrupted schedule from wrapping.
    fn local_usage(&self, usage: u32, a: GCell, b: GCell) -> u32 {
        plus_delta(usage, self.delta(a, b))
    }

    /// Adds `sign` to every edge of the polyline, one straight run at a
    /// time: a run's deltas and mask bits are contiguous.
    fn apply(&mut self, path: &Path, sign: i32) {
        for w in path.windows(2) {
            let (a, b) = (w[0], w[1]);
            if a.y == b.y {
                let (lo, hi) = (a.x.min(b.x), a.x.max(b.x));
                debug_assert!(lo >= self.x0 && hi <= self.x1 && a.y >= self.y0 && a.y <= self.y1);
                let (i, bit) = (self.h_at(lo, a.y), self.h_bit(lo, a.y));
                for (k, x) in (lo..hi).enumerate() {
                    self.buf.dh[i + k] += sign;
                    let d = self.buf.dh[i + k];
                    let over = d != 0 && plus_delta(self.base.usage_h(x, a.y), d) >= self.base.cap_h;
                    put_bit(&mut self.buf.dirty_h, bit + k, d != 0);
                    put_bit(&mut self.buf.over_h, bit + k, over);
                }
            } else {
                debug_assert_eq!(a.x, b.x, "a run lies on one row or column");
                let (lo, hi) = (a.y.min(b.y), a.y.max(b.y));
                debug_assert!(a.x >= self.x0 && a.x <= self.x1 && lo >= self.y0 && hi <= self.y1);
                let (i, bit) = (self.v_at(a.x, lo), self.v_bit(a.x, lo));
                for (k, y) in (lo..hi).enumerate() {
                    self.buf.dv[i + k] += sign;
                    let d = self.buf.dv[i + k];
                    let over = d != 0 && plus_delta(self.base.usage_v(a.x, y), d) >= self.base.cap_v;
                    put_bit(&mut self.buf.dirty_v, bit + k, d != 0);
                    put_bit(&mut self.buf.over_v, bit + k, over);
                }
            }
        }
    }

    /// Records one routed path — any axis-aligned polyline, a search's
    /// unit steps or the router's corner list — in the overlay (every edge
    /// must lie inside the rectangle — guaranteed for interior connections,
    /// whose windows the rectangle contains).
    pub fn commit(&mut self, path: &Path) {
        self.apply(path, 1);
    }

    /// Subtracts one committed path from the view — how a rip-up victim's
    /// own old demand is hidden from its re-route while the shared grid
    /// still carries it (the swap happens at the canonical commit slot).
    pub fn uncommit(&mut self, path: &Path) {
        self.apply(path, -1);
    }
}

/// The base grid's words holding the edges `lo..hi` of one row (or
/// column): `(first, count)`.
fn words_spanned(lo: u32, hi: u32) -> (usize, usize) {
    let first = (lo / 64) as usize;
    (first, if hi > lo { (hi - 1) as usize / 64 + 1 - first } else { 0 })
}

/// Committed usage plus an overlay delta, clamped at zero.
fn plus_delta(usage: u32, delta: i32) -> u32 {
    let v = usage as i64 + delta as i64;
    debug_assert!(v >= 0, "overlay drove edge usage negative");
    v.max(0) as u32
}

impl DemandGrid for OverlayGrid<'_> {
    fn width(&self) -> u32 {
        self.base.width
    }

    fn height(&self) -> u32 {
        self.base.height
    }

    fn step_cost(&self, a: GCell, b: GCell) -> f64 {
        let (usage, cap, hist) = self.base.edge_parts(a, b);
        step_cost_from(self.local_usage(usage, a, b), cap, hist)
    }

    fn is_full(&self, a: GCell, b: GCell) -> bool {
        let (usage, cap, _) = self.base.edge_parts(a, b);
        self.local_usage(usage, a, b) >= cap
    }

    /// A probe that stays inside the rectangle — every probe of an
    /// interior connection or a seam victim, whose window the rectangle
    /// contains — scans the base grid's full-edge words with this overlay's
    /// masks laid over them, `(base & !dirty) | over`: an edge with no delta
    /// is as full as the base says, one with a delta as full as `over` says.
    /// A probe that can leave the rectangle asks edge by edge.
    fn free_run(&self, origin: GCell, horizontal: bool, min: u32, max: u32) -> (u32, u32) {
        let inside = |c: GCell| c.x >= self.x0 && c.x <= self.x1 && c.y >= self.y0 && c.y <= self.y1;
        let laid = |base: &[u64], dirty: &[u64], over: &[u64], first: usize, k: usize| {
            (base[k] & !dirty[k - first]) | over[k - first]
        };
        if horizontal && inside(GCell::new(min, origin.y)) && inside(GCell::new(max, origin.y)) {
            let (first, count) = self.h_words();
            let row = (origin.y - self.y0) as usize * count;
            let (dirty, over) = (&self.buf.dirty_h[row..][..count], &self.buf.over_h[row..][..count]);
            let base = self.base.full_h_row(origin.y);
            free_run_in(|k| laid(base, dirty, over, first, k), origin.x, min, max)
        } else if !horizontal && inside(GCell::new(origin.x, min)) && inside(GCell::new(origin.x, max)) {
            let (first, count) = self.v_words();
            let col = (origin.x - self.x0) as usize * count;
            let (dirty, over) = (&self.buf.dirty_v[col..][..count], &self.buf.over_v[col..][..count]);
            let base = self.base.full_v_col(origin.x);
            free_run_in(|k| laid(base, dirty, over, first, k), origin.y, min, max)
        } else {
            free_run_by_edge(self, origin, horizontal, min, max)
        }
    }
}

/// One unit of parallel work in a negotiation wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionTask {
    /// The run of `len` consecutive interior items starting at queue
    /// position `start` of `region`'s queue — routed against the region's
    /// private overlay, committed locally, no cross-worker sync.
    Interior { region: u32, start: u32, len: u32 },
    /// One seam-crossing item, admitted because it heads every queue it
    /// overlaps — routed against the committed global grid.
    Seam { item: u32 },
}

/// Deterministic wave scheduler over one canonical-ordered worklist.
///
/// `item` indices refer to positions in the worklist handed to
/// [`RegionScheduler::new`] (rank order). See the module docs for the
/// protocol and the determinism argument.
pub struct RegionScheduler {
    map: RegionMap,
    spans: Vec<RegionSpan>,
    /// Per-region FIFO of overlapping items, in rank order.
    queues: Vec<Vec<u32>>,
    heads: Vec<usize>,
    remaining: usize,
}

impl RegionScheduler {
    /// Builds the per-region queues for a worklist given each item's
    /// search window, in canonical rank order.
    pub fn new(map: RegionMap, windows: &[SearchWindow]) -> RegionScheduler {
        let spans: Vec<RegionSpan> = windows.iter().map(|w| map.span(w)).collect();
        let mut queues: Vec<Vec<u32>> = vec![Vec::new(); map.count()];
        for (item, span) in spans.iter().enumerate() {
            for r in span.regions(&map) {
                queues[r as usize].push(item as u32);
            }
        }
        let heads = vec![0; queues.len()];
        RegionScheduler { map, spans, queues, heads, remaining: windows.len() }
    }

    /// Items still queued.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// The rank-ordered queue of one region.
    pub fn queue(&self, region: u32) -> &[u32] {
        &self.queues[region as usize]
    }

    /// Whether `item` is at the head of every queue it belongs to.
    fn ready(&self, item: u32) -> bool {
        self.spans[item as usize].regions(&self.map).all(|r| {
            let q = &self.queues[r as usize];
            let h = self.heads[r as usize];
            h < q.len() && q[h] == item
        })
    }

    /// Computes the next wave from the frozen queue heads: pairwise
    /// region-disjoint tasks in fixed region order. Empty only when all
    /// items are done. Call [`RegionScheduler::advance`] with the executed
    /// wave before asking for the next one.
    pub fn next_wave(&self) -> Vec<RegionTask> {
        let mut wave = Vec::new();
        for r in 0..self.queues.len() {
            let q = &self.queues[r];
            let h0 = self.heads[r];
            if h0 >= q.len() {
                continue;
            }
            let head = q[h0];
            let span = self.spans[head as usize];
            if span.interior() {
                let mut h = h0 + 1;
                while h < q.len() && self.spans[q[h] as usize].interior() {
                    h += 1;
                }
                wave.push(RegionTask::Interior {
                    region: r as u32,
                    start: h0 as u32,
                    len: (h - h0) as u32,
                });
            } else if span.min_region(&self.map) == r as u32 && self.ready(head) {
                wave.push(RegionTask::Seam { item: head });
            }
        }
        debug_assert!(
            !wave.is_empty() || self.remaining == 0,
            "scheduler stalled with {} items queued",
            self.remaining
        );
        wave
    }

    /// Pops the executed wave's items off their queues.
    pub fn advance(&mut self, wave: &[RegionTask]) {
        for task in wave {
            match *task {
                RegionTask::Interior { region, len, .. } => {
                    self.heads[region as usize] += len as usize;
                    self.remaining -= len as usize;
                }
                RegionTask::Seam { item } => {
                    for r in self.spans[item as usize].regions(&self.map) {
                        self.heads[r as usize] += 1;
                    }
                    self.remaining -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleDeck;

    #[test]
    fn partition_covers_grid_exactly() {
        for (w, h, s) in [(16u32, 16u32, 4u32), (17, 13, 5), (8, 8, 64), (9, 9, 1)] {
            let map = RegionMap::new(w, h, s);
            let mut seen = vec![0u32; (w * h) as usize];
            for r in 0..map.count() as u32 {
                let (x0, y0, x1, y1) = map.rect(r);
                assert!(x1 < w && y1 < h);
                for y in y0..=y1 {
                    for x in x0..=x1 {
                        seen[(y * w + x) as usize] += 1;
                    }
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "{w}x{h}/{s} must tile exactly once");
        }
    }

    #[test]
    fn span_matches_rect_overlap() {
        let map = RegionMap::new(32, 32, 8);
        let win = SearchWindow { x0: 6, y0: 0, x1: 9, y1: 7 };
        let span = map.span(&win);
        assert!(!span.interior());
        assert_eq!(span.count(), 2);
        assert_eq!(span.regions(&map).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(span.min_region(&map), 0);
        let inner = map.span(&SearchWindow { x0: 8, y0: 8, x1: 15, y1: 15 });
        assert!(inner.interior());
        assert_eq!(inner.regions(&map).collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn overlay_costs_match_committed_grid_bit_for_bit() {
        let mut grid = RoutingGrid::new(16, 16, &RuleDeck::simple(3));
        // Background congestion plus history so all cost terms are live.
        for x in 0..15 {
            for _ in 0..4 {
                grid.add_usage(GCell::new(x, 5), GCell::new(x + 1, 5), 1);
            }
        }
        grid.bump_history();
        let path: Path =
            vec![GCell::new(2, 4), GCell::new(3, 4), GCell::new(3, 5), GCell::new(4, 5)];
        // Overlay over a rect containing the path vs. committing for real.
        let mut overlay = OverlayGrid::new(&grid, (0, 0, 7, 7));
        overlay.commit(&path);
        let mut committed = grid.clone();
        for w in path.windows(2) {
            committed.add_usage(w[0], w[1], 1);
        }
        for y in 0..8u32 {
            for x in 0..8u32 {
                let c = GCell::new(x, y);
                for n in committed.neighbours(c) {
                    if n.x < 8 && n.y < 8 {
                        assert_eq!(
                            DemandGrid::step_cost(&overlay, c, n).to_bits(),
                            committed.step_cost(c, n).to_bits(),
                            "{c:?}->{n:?}"
                        );
                        assert_eq!(
                            DemandGrid::is_full(&overlay, c, n),
                            committed.is_full(c, n)
                        );
                    }
                }
            }
        }
        // Outside the rect the overlay reads the base grid.
        let a = GCell::new(12, 5);
        let b = GCell::new(13, 5);
        assert_eq!(DemandGrid::step_cost(&overlay, a, b).to_bits(), grid.step_cost(a, b).to_bits());
    }

    /// Drives the scheduler over synthetic windows and checks the
    /// protocol invariants: items complete exactly once, in an order that
    /// respects rank within every region, waves are region-disjoint, and
    /// no wave is empty before completion.
    #[test]
    fn scheduler_completes_all_items_with_region_disjoint_waves() {
        let map = RegionMap::new(32, 32, 8);
        // A mix of interior and seam-crossing windows, deliberately
        // overlapping, in "rank order".
        let windows: Vec<SearchWindow> = (0..40)
            .map(|i| {
                let x0 = (i * 7) % 24;
                let y0 = (i * 11) % 24;
                let w = 3 + (i % 9);
                SearchWindow { x0, y0, x1: (x0 + w).min(31), y1: (y0 + w / 2).min(31) }
            })
            .collect();
        let mut sched = RegionScheduler::new(map, &windows);
        let mut done = vec![false; windows.len()];
        let mut waves = 0;
        while sched.remaining() > 0 {
            let wave = sched.next_wave();
            assert!(!wave.is_empty(), "no deadlock while items remain");
            waves += 1;
            let mut touched: Vec<u32> = Vec::new();
            for task in &wave {
                let items: Vec<u32> = match *task {
                    RegionTask::Interior { region, start, len } => {
                        let q = sched.queue(region);
                        q[start as usize..(start + len) as usize].to_vec()
                    }
                    RegionTask::Seam { item } => vec![item],
                };
                for &it in &items {
                    assert!(!done[it as usize], "item {it} scheduled twice");
                    done[it as usize] = true;
                    for r in sched.spans[it as usize].regions(&map) {
                        assert!(!touched.contains(&r), "wave shares region {r}");
                    }
                }
                // All of one task's regions become off-limits to others.
                for &it in &items {
                    touched.extend(sched.spans[it as usize].regions(&map));
                }
            }
            sched.advance(&wave);
        }
        assert!(done.iter().all(|&d| d), "every item routed");
        assert!(waves > 1, "mixed windows need several waves");
        assert!(sched.next_wave().is_empty());
    }

    /// With one region covering the whole grid the schedule degenerates
    /// to a single task holding every item in rank order — the canonical
    /// serial reference the determinism argument compares against.
    #[test]
    fn single_region_degenerates_to_serial_order() {
        let map = RegionMap::new(16, 16, 64);
        assert_eq!(map.count(), 1);
        let windows: Vec<SearchWindow> =
            (0..10).map(|i| SearchWindow { x0: i, y0: i, x1: i + 4, y1: i + 3 }).collect();
        let sched = RegionScheduler::new(map, &windows);
        let wave = sched.next_wave();
        assert_eq!(wave, vec![RegionTask::Interior { region: 0, start: 0, len: 10 }]);
        assert_eq!(sched.queue(0), (0..10u32).collect::<Vec<_>>().as_slice());
    }
}
