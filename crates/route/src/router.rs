//! The global router: net decomposition, algorithm selection, and
//! PathFinder-style negotiated rip-up and re-route.

use crate::grid::{DemandGrid, GCell, RoutingGrid};
use crate::linesearch::probe_window;
use crate::maze::{corners, count_bends, Path, SearchWindow};
use crate::rules::RuleDeck;
use crate::scratch::SearchScratch;
use eda_place::{NetPins, Placement};
use eda_netlist::memo::fnv1a;
use eda_netlist::{Netlist, SubstageMemo};
use std::time::Instant;

/// Routing algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteAlgorithm {
    /// Lee BFS, first-come order, no negotiation (decade-old baseline).
    LeeBfs,
    /// Congestion-aware A* with negotiation.
    AStar,
    /// Mikami–Tabuchi line search with A* fallback and negotiation.
    LineSearch,
}

/// Router configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteConfig {
    /// Algorithm.
    pub algorithm: RouteAlgorithm,
    /// Rule deck (capacities, via cost).
    pub deck: RuleDeck,
    /// G-cells per side of the routing grid.
    pub grid_cells: u32,
    /// Maximum rip-up and re-route iterations.
    pub ripup_iterations: usize,
    /// Search bound: `0` (the default) lets every maze search see the full
    /// grid and line-search probes the connection's own extent. When
    /// positive, every search is confined to the connection's bounding box
    /// expanded by this many g-cells, so per-search scratch is proportional
    /// to the connection's extent instead of the grid area — the tiled mode
    /// the scale tier routes in. The window is a pure function of the
    /// connection. It also sets the rip-up victim rule (see [`route`]):
    /// at-capacity edges when `0`, strictly overflowed edges otherwise.
    pub window_margin: u32,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            algorithm: RouteAlgorithm::LineSearch,
            deck: RuleDeck::simple(6),
            grid_cells: 32,
            ripup_iterations: 6,
            window_margin: 0,
        }
    }
}

/// The result of routing a design.
#[derive(Debug, Clone)]
pub struct RouteOutcome {
    /// Total wirelength in g-cell edge units.
    pub wirelength: u64,
    /// Total vias (bends in the 2-D model).
    pub vias: u64,
    /// Remaining capacity overflow after the final iteration (0 = clean).
    pub overflow: u64,
    /// Two-pin connections routed.
    pub connections: usize,
    /// Connections where line search failed and fell back to maze.
    pub linesearch_fallbacks: usize,
    /// Cells expanded across all searches (work measure).
    pub cells_expanded: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Rip-up iterations actually executed.
    pub iterations: usize,
    /// Total overflow after each executed iteration (`[0]` = after the
    /// initial pass, then one entry per rip-up round).
    pub ripup_overflow: Vec<u64>,
    /// Largest per-search scratch window materialized (g-cells). Equals
    /// [`RouteOutcome::dense_grid_cells`] when
    /// [`RouteConfig::window_margin`] is `0`; under tiled routing it is the
    /// bounded-memory bar the bench compares against the dense grid.
    pub peak_window_cells: u64,
    /// Scratch a full-grid search would have allocated (`width × height`) —
    /// the dense baseline bar.
    pub dense_grid_cells: u64,
}

impl RouteOutcome {
    /// Whether the route is overflow-free (manufacturable on this stack).
    pub fn is_clean(&self) -> bool {
        self.overflow == 0
    }
}

/// One 2-pin connection to route.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TwoPin {
    pub(crate) src: GCell,
    pub(crate) dst: GCell,
    /// Distinct g-cell pins of the owning net — the fanout weight of the
    /// canonical order.
    pub(crate) fanout: u32,
}

/// One net's pins as sorted, deduplicated g-cells of a `width × height` grid.
fn net_gcells(
    pins: &NetPins,
    placement: &Placement,
    net: usize,
    width: u32,
    height: u32,
) -> Vec<GCell> {
    let die = placement.die;
    let mut cells: Vec<GCell> = pins
        .points(placement, net)
        .map(|p| {
            let x = ((p.x / die.width_um * width as f64) as u32).min(width - 1);
            let y = ((p.y / die.height_um * height as f64) as u32).min(height - 1);
            GCell::new(x, y)
        })
        .collect();
    cells.sort_unstable();
    cells.dedup();
    cells
}

/// Decomposes every multi-pin net into a Prim MST over its g-cell pins,
/// the per-net edge lists concatenated in net order.
fn decompose(netlist: &Netlist, placement: &Placement, width: u32, height: u32) -> Vec<TwoPin> {
    let pins = NetPins::build(netlist);
    (0..pins.num_nets())
        .flat_map(|net| prim_pairs(&net_gcells(&pins, placement, net, width, height)))
        .collect()
}

/// Prim MST on Manhattan distance over one net's deduplicated pin list.
///
/// O(pins²): every out-of-tree pin `j` carries its nearest in-tree pin as
/// the key `(distance, i)`, refreshed against each pin as it joins the
/// tree. Each step takes the smallest `(distance, i, j)`, which is the pair
/// a scan of all in-tree × out-of-tree pairs in index order with a strict
/// `<` would stop at — the emitted sequence is part of `route_outcome_key`,
/// so ties must not move.
fn prim_pairs(pins: &[GCell]) -> Vec<TwoPin> {
    if pins.len() < 2 {
        return Vec::new();
    }
    let fanout = pins.len() as u32;
    let mut pairs = Vec::with_capacity(pins.len() - 1);
    let mut in_tree = vec![false; pins.len()];
    in_tree[0] = true;
    let mut nearest: Vec<(u32, usize)> = pins.iter().map(|p| (pins[0].manhattan(p), 0)).collect();
    for _ in 1..pins.len() {
        let (_, i, j) = (0..pins.len())
            .filter(|&j| !in_tree[j])
            .map(|j| (nearest[j].0, nearest[j].1, j))
            .min()
            .expect("tree incomplete implies a remaining pin");
        in_tree[j] = true;
        pairs.push(TwoPin { src: pins[i], dst: pins[j], fanout });
        for (k, key) in nearest.iter_mut().enumerate() {
            *key = (*key).min((pins[j].manhattan(&pins[k]), j));
        }
    }
    pairs
}

/// Adds `delta` to every edge of a wire, one straight run at a time.
fn commit(grid: &mut RoutingGrid, wire: &[GCell], delta: i32) {
    for w in wire.windows(2) {
        grid.add_run(w[0], w[1], delta);
    }
}

/// Corners per page of [`Wires`]: 64 KiB of `GCell`s, below glibc's mmap
/// threshold. A routed wire averages 3.1 corners on the 50 k mesh (2.6 at
/// 10⁴), so one page holds about 2 600 wires.
const PAGE: usize = 8_192;

/// Where one connection's corners sit in [`Wires`]; `len == 0` until it is
/// first routed.
#[derive(Debug, Clone, Copy, Default)]
struct WireSpan {
    page: u32,
    offset: u32,
    len: u32,
}

/// Every routed connection's canonical corner list, in pages of [`PAGE`]
/// corners that never grow, so no corner moves and no buffer doubles. A
/// wire longer than a page gets a page of its own, sized exactly. A
/// re-route appends the new corners and repoints the span; the old ones
/// stay dead in their page until the route returns. With the store, a
/// whole route adds 30 live heap blocks at its peak on the 10⁴ mesh and 90
/// on the 50 k one, where one block per connection added 31 990 and
/// 165 456.
pub(crate) struct Wires {
    pages: Vec<Vec<GCell>>,
    /// The page short wires are appended to (`usize::MAX` before the first).
    open: usize,
    spans: Vec<WireSpan>,
}

impl Wires {
    /// A store for `n` connections, none of them routed.
    pub(crate) fn new(n: usize) -> Wires {
        Wires { pages: Vec::new(), open: usize::MAX, spans: vec![WireSpan::default(); n] }
    }

    /// Connections the store has a span for.
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// Connection `i`'s corners, or `None` before it is first routed.
    pub(crate) fn get(&self, i: usize) -> Option<&[GCell]> {
        let s = self.spans[i];
        (s.len > 0).then(|| &self.pages[s.page as usize][s.offset as usize..][..s.len as usize])
    }

    /// Makes `wire` connection `i`'s corners, written straight into a page,
    /// and returns them as stored.
    pub(crate) fn set(&mut self, i: usize, wire: impl Iterator<Item = GCell> + Clone) -> &[GCell] {
        let len = wire.clone().count();
        let page = if len > PAGE {
            self.pages.push(Vec::with_capacity(len));
            self.pages.len() - 1
        } else {
            if self.pages.get(self.open).is_none_or(|p| p.len() + len > PAGE) {
                self.open = self.pages.len();
                self.pages.push(Vec::with_capacity(PAGE));
            }
            self.open
        };
        let stored = &mut self.pages[page];
        let offset = stored.len();
        stored.extend(wire);
        self.spans[i] = WireSpan { page: page as u32, offset: offset as u32, len: len as u32 };
        &stored[offset..]
    }
}

/// Pure per-connection search against the committed grid — the only route
/// computation, shared by the initial pass and the rip-up re-routes.
/// Returns `(path, linesearch_fell_back, expanded, scratch)`, the path as
/// the search walked it; the router stores, commits and scans its
/// [`corners`] as straight runs.
fn route_one_in<G: DemandGrid>(
    grid: &G,
    tp: &TwoPin,
    win: SearchWindow,
    cfg: &RouteConfig,
    scratch: &mut SearchScratch,
) -> (Path, bool, u64, u64) {
    let via_cost = cfg.deck.via_cost;
    let (p, fell_back, expanded, scratch_cells) = match cfg.algorithm {
        RouteAlgorithm::LeeBfs => {
            let (p, s) = scratch.lee_bfs_in(grid, tp.src, tp.dst, win).expect("grid is connected");
            (p, false, s.expanded as u64, s.scratch_cells as u64)
        }
        RouteAlgorithm::AStar => {
            let (p, s) =
                scratch.astar_in(grid, tp.src, tp.dst, via_cost, win).expect("grid is connected");
            (p, false, s.expanded as u64, s.scratch_cells as u64)
        }
        RouteAlgorithm::LineSearch => {
            // A bounded search clips the probes to the window the maze
            // fallback searches; margin 0 probes the connection's extent.
            let probe_win =
                if cfg.window_margin > 0 { win } else { probe_window(grid, tp.src, tp.dst) };
            match scratch.mikami_tabuchi_in(grid, tp.src, tp.dst, 12, probe_win) {
                Some((p, s)) => (p, false, s.expanded as u64, s.scratch_cells as u64),
                None => {
                    let (p, s) = scratch
                        .astar_in(grid, tp.src, tp.dst, via_cost, win)
                        .expect("grid is connected");
                    (p, true, s.expanded as u64, s.scratch_cells as u64)
                }
            }
        }
    };
    (p, fell_back, expanded, scratch_cells)
}

/// Routes a placed netlist.
///
/// The baseline [`RouteAlgorithm::LeeBfs`] routes each connection once with
/// no congestion awareness; the advanced algorithms run negotiated rip-up
/// and re-route until clean or the iteration budget is spent.
///
/// There is one schedule. Connections are ranked once into the **canonical
/// order** — descending `manhattan + 2·(fanout − 2)`: long, high-fanout
/// connections need the straightest resources and get them from an empty
/// grid — and the initial pass routes that order one connection at a time,
/// each search seeing every earlier commit. Each negotiated round then bumps
/// history on overflowed edges, collects its victims in canonical order and
/// re-routes them the same way: a victim's old path stays committed until
/// its own turn, so each re-route sees every later victim's old path.
///
/// The victim rule is the one place the dense and the windowed tier differ:
/// with `window_margin == 0` every path on an *at-capacity* edge is a
/// victim, otherwise only paths on *strictly overflowed* edges.
pub fn route(netlist: &Netlist, placement: &Placement, cfg: &RouteConfig) -> RouteOutcome {
    route_stats_memo(netlist, placement, cfg, None)
}

/// [`route`] with the independent pass auditor of [`crate::audit`] forced on
/// in every build profile (debug builds run it on every route anyway): after
/// the initial pass and after every rip-up round, per-edge demand rebuilt
/// edge by edge from the committed paths must equal the grid's, and every
/// path must be a canonical corner list — straight runs, each turning from
/// the last — from its source to its target inside its search window.
///
/// # Panics
///
/// Panics with the auditor's message on the first pass that fails.
pub fn route_audited(netlist: &Netlist, placement: &Placement, cfg: &RouteConfig) -> RouteOutcome {
    route_with(netlist, placement, cfg, None, true)
}

/// Memo kind for whole-outcome route replay entries.
pub const ROUTE_OUTCOME_KIND: &str = "route.outcome";

/// [`route`] with an optional sub-stage memo holding one entry per route
/// ([`ROUTE_OUTCOME_KIND`]): the final [`RouteOutcome`], keyed on the
/// decomposed connection list plus every route-relevant config field,
/// replays without touching the grid at all.
///
/// Nothing finer is memoized. An entry must replace work that costs more
/// than a store round trip; per-item entries do not — a net's Prim MST is
/// cheaper to recompute than to look up, and a connection's path depends on
/// the demand committed by every previously routed connection, so it could
/// not replay out of context anyway. A replayed outcome's `seconds` is the
/// replay's own, near-zero, elapsed time.
pub fn route_stats_memo(
    netlist: &Netlist,
    placement: &Placement,
    cfg: &RouteConfig,
    memo: Option<&dyn SubstageMemo>,
) -> RouteOutcome {
    route_with(netlist, placement, cfg, memo, cfg!(debug_assertions))
}

/// The one route entry point behind the public wrappers; `audit` runs the
/// pass auditor after every pass.
fn route_with(
    netlist: &Netlist,
    placement: &Placement,
    cfg: &RouteConfig,
    memo: Option<&dyn SubstageMemo>,
    audit: bool,
) -> RouteOutcome {
    let start = Instant::now();
    let w = cfg.grid_cells.max(2);
    let h = cfg.grid_cells.max(2);
    let grid = RoutingGrid::new(w, h, &cfg.deck);
    let decomposed = decompose(netlist, placement, w, h);
    let Some(m) = memo else {
        return route_decomposed(grid, decomposed, cfg, start, audit).0;
    };
    let key = route_outcome_key(cfg, &decomposed);
    if let Some(out) = m.load(ROUTE_OUTCOME_KIND, key).and_then(|p| parse_route_outcome(&p, start)) {
        return out;
    }
    let (outcome, _) = route_decomposed(grid, decomposed, cfg, start, audit);
    m.store(ROUTE_OUTCOME_KIND, key, &route_outcome_text(&outcome));
    outcome
}

/// Revision of the route schedule, folded into every cache key that
/// addresses a route result ([`ROUTE_OUTCOME_KIND`] entries here, the
/// `7_route` stage entries in `eda-core`). Bump it whenever the same config
/// and connection list can produce a different [`RouteOutcome`] than the
/// previous revision did, so a store written before the change recomputes
/// instead of replaying the old schedule's results. Revision 1 (implicit,
/// no field in the key) had the batched dense passes.
pub const SCHEDULE_REV: u32 = 2;

/// Memo key for the whole-outcome entry: FNV over [`SCHEDULE_REV`], the
/// route config (algorithm, deck, grid, budgets, window margin) and the
/// decomposed connection list.
fn route_outcome_key(cfg: &RouteConfig, pairs: &[TwoPin]) -> u64 {
    let mut text = format!(
        "route|rev{SCHEDULE_REV}|{:?}|{}|{}|{}|{:016x}|{:016x}|{}|{}|{}\n",
        cfg.algorithm,
        cfg.deck.name,
        cfg.deck.layers,
        cfg.deck.tracks_per_layer,
        cfg.deck.track_derating.to_bits(),
        cfg.deck.via_cost.to_bits(),
        cfg.grid_cells,
        cfg.ripup_iterations,
        cfg.window_margin,
    );
    for tp in pairs {
        text.push_str(&format!("{} {} {} {} {}\n", tp.src.x, tp.src.y, tp.dst.x, tp.dst.y, tp.fanout));
    }
    fnv1a(text.bytes())
}

/// Serializes every deterministic [`RouteOutcome`] field (`seconds` is wall
/// clock and excluded — a replay reports its own, near-zero, elapsed time).
fn route_outcome_text(o: &RouteOutcome) -> String {
    let mut out = format!(
        "routeout v2 {} {} {} {} {} {} {} {} {}\n",
        o.wirelength,
        o.vias,
        o.overflow,
        o.connections,
        o.linesearch_fallbacks,
        o.cells_expanded,
        o.iterations,
        o.peak_window_cells,
        o.dense_grid_cells,
    );
    out.push_str(&format!("ro {}\n", o.ripup_overflow.len()));
    for v in &o.ripup_overflow {
        out.push_str(&format!("{v}\n"));
    }
    out.push_str("end\n");
    out
}

fn parse_route_outcome(text: &str, start: Instant) -> Option<RouteOutcome> {
    let mut lines = text.lines();
    let mut f = lines.next()?.split(' ');
    if f.next()? != "routeout" || f.next()? != "v2" {
        return None;
    }
    let mut o = RouteOutcome {
        wirelength: f.next()?.parse().ok()?,
        vias: f.next()?.parse().ok()?,
        overflow: f.next()?.parse().ok()?,
        connections: f.next()?.parse().ok()?,
        linesearch_fallbacks: f.next()?.parse().ok()?,
        cells_expanded: f.next()?.parse().ok()?,
        seconds: 0.0,
        iterations: f.next()?.parse().ok()?,
        ripup_overflow: Vec::new(),
        peak_window_cells: f.next()?.parse().ok()?,
        dense_grid_cells: f.next()?.parse().ok()?,
    };
    if f.next().is_some() {
        return None;
    }
    let n: usize = lines.next()?.strip_prefix("ro ")?.parse().ok()?;
    for _ in 0..n {
        o.ripup_overflow.push(lines.next()?.parse().ok()?);
    }
    if lines.next()? != "end" || lines.next().is_some() {
        return None;
    }
    o.seconds = start.elapsed().as_secs_f64();
    Some(o)
}

/// Running totals across all passes of one route.
#[derive(Default)]
struct Tally {
    fallbacks: usize,
    expanded: u64,
    peak_window: u64,
}

/// Routes `items` (pair indices in canonical rank order) one at a time,
/// committing every result into `grid` and `wires`. A rip-up victim's old
/// wire comes off the grid just before its own re-route.
fn run_pass(
    grid: &mut RoutingGrid,
    pairs: &[TwoPin],
    items: &[u32],
    cfg: &RouteConfig,
    wires: &mut Wires,
    scratch: &mut SearchScratch,
    tally: &mut Tally,
) {
    let full = SearchWindow::full(grid);
    for &i in items {
        let tp = &pairs[i as usize];
        let win = if cfg.window_margin == 0 {
            full
        } else {
            SearchWindow::around(tp.src, tp.dst, cfg.window_margin, grid)
        };
        let i = i as usize;
        if let Some(old) = wires.get(i) {
            commit(grid, old, -1);
        }
        let (p, fell_back, expanded, scratch_cells) = route_one_in(grid, tp, win, cfg, scratch);
        tally.fallbacks += fell_back as usize;
        tally.expanded += expanded;
        tally.peak_window = tally.peak_window.max(scratch_cells);
        commit(grid, wires.set(i, corners(&p)), 1);
    }
}

/// Routes an already-decomposed connection list: canonical order, the
/// initial pass, then negotiated rip-up rounds — see [`route`] for the
/// schedule and the victim rule. Also returns the wire store, one corner
/// list per connection.
fn route_decomposed(
    mut grid: RoutingGrid,
    pairs: Vec<TwoPin>,
    cfg: &RouteConfig,
    start: Instant,
    audit: bool,
) -> (RouteOutcome, Wires) {
    let (w, h) = (grid.width, grid.height);
    let mut order: Vec<u32> = (0..pairs.len() as u32).collect();
    order.sort_by_key(|&i| {
        let p = &pairs[i as usize];
        std::cmp::Reverse(p.src.manhattan(&p.dst) + 2 * p.fanout.saturating_sub(2))
    });

    let mut wires = Wires::new(pairs.len());
    // Search scratch lives exactly as long as this route call, reused by
    // every search of every pass.
    let mut scratch = SearchScratch::new();
    let mut tally = Tally::default();
    let audit_pass = |grid: &RoutingGrid, wires: &Wires| {
        if audit {
            if let Err(e) = crate::audit::audit_pass(grid, &pairs, wires, cfg.window_margin) {
                panic!("route audit failed: {e}");
            }
        }
    };
    run_pass(&mut grid, &pairs, &order, cfg, &mut wires, &mut scratch, &mut tally);
    audit_pass(&grid, &wires);

    // The one tier switch left, and both halves earn their keep (measured
    // when the schedules were merged). Strictly-overflowed victims on the
    // dense tier cost QoR: `fabric:8x16` ends at 8/7/0 overflow instead of
    // 1/2/0 over seeds 1 / 31000033 / 42, `rand:800:5` at 12/10/0 instead of
    // 0/0/0 — on a 32-cell grid, moving the at-capacity neighbours is what
    // opens room. At-capacity victims at scale cost time and move QoR: most
    // edges sit near capacity by design, so the rule churns thousands of
    // paths per residual overflow unit (50 k mesh route 1.58 → 2.01 s).
    let victim_excess = if cfg.window_margin == 0 { 0 } else { 1 };
    let negotiate = cfg.algorithm != RouteAlgorithm::LeeBfs;
    let mut iterations = 1usize;
    let mut ripup_overflow = vec![grid.total_overflow()];
    if negotiate {
        for _ in 0..cfg.ripup_iterations {
            if grid.total_overflow() == 0 {
                break;
            }
            grid.bump_history();
            iterations += 1;
            let victims: Vec<u32> = order
                .iter()
                .copied()
                .filter(|&i| {
                    wires.get(i as usize).is_some_and(|w| {
                        w.windows(2).any(|r| grid.run_reaches(r[0], r[1], victim_excess))
                    })
                })
                .collect();
            run_pass(&mut grid, &pairs, &victims, cfg, &mut wires, &mut scratch, &mut tally);
            audit_pass(&grid, &wires);
            ripup_overflow.push(grid.total_overflow());
        }
    }

    let vias: u64 = (0..wires.len()).filter_map(|i| wires.get(i)).map(|w| count_bends(w) as u64).sum();
    let outcome = RouteOutcome {
        wirelength: grid.total_usage(),
        vias,
        overflow: grid.total_overflow(),
        connections: pairs.len(),
        linesearch_fallbacks: tally.fallbacks,
        cells_expanded: tally.expanded,
        seconds: start.elapsed().as_secs_f64(),
        iterations,
        ripup_overflow,
        peak_window_cells: tally.peak_window,
        dense_grid_cells: w as u64 * h as u64,
    };
    (outcome, wires)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_netlist::generate;
    use eda_place::{place_global, Die, GlobalConfig};

    fn placed(gates: usize, seed: u64) -> (eda_netlist::Netlist, Placement) {
        let n = generate::random_logic(generate::RandomLogicConfig {
            gates,
            seed,
            ..Default::default()
        })
        .unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let p = place_global(&n, die, &GlobalConfig::default());
        (n, p)
    }

    /// A sub-stage memo that counts the entries it hands out and takes in.
    struct MapMemo {
        map: std::cell::RefCell<std::collections::HashMap<(String, u64), String>>,
        hits: std::cell::Cell<usize>,
        stores: std::cell::Cell<usize>,
    }

    impl MapMemo {
        fn new() -> MapMemo {
            MapMemo {
                map: std::cell::RefCell::new(std::collections::HashMap::new()),
                hits: std::cell::Cell::new(0),
                stores: std::cell::Cell::new(0),
            }
        }
    }

    impl SubstageMemo for MapMemo {
        fn load(&self, kind: &str, key: u64) -> Option<String> {
            let hit = self.map.borrow().get(&(kind.to_string(), key)).cloned();
            if hit.is_some() {
                self.hits.set(self.hits.get() + 1);
            }
            hit
        }
        fn store(&self, kind: &str, key: u64, payload: &str) {
            self.stores.set(self.stores.get() + 1);
            self.map.borrow_mut().insert((kind.to_string(), key), payload.to_string());
        }
    }

    /// Every deterministic field (all but `seconds`).
    fn same_outcome(a: &RouteOutcome, b: &RouteOutcome, tag: &str) {
        assert_eq!(a.wirelength, b.wirelength, "{tag}");
        assert_eq!(a.vias, b.vias, "{tag}");
        assert_eq!(a.overflow, b.overflow, "{tag}");
        assert_eq!(a.connections, b.connections, "{tag}");
        assert_eq!(a.linesearch_fallbacks, b.linesearch_fallbacks, "{tag}");
        assert_eq!(a.cells_expanded, b.cells_expanded, "{tag}");
        assert_eq!(a.iterations, b.iterations, "{tag}");
        assert_eq!(a.ripup_overflow, b.ripup_overflow, "{tag}");
        assert_eq!(a.peak_window_cells, b.peak_window_cells, "{tag}");
        assert_eq!(a.dense_grid_cells, b.dense_grid_cells, "{tag}");
    }

    /// Prim by exhaustive rescan: every step scans all in-tree × out-of-tree
    /// pairs in index order and keeps the first strictly smaller distance.
    /// O(pins³); the tie-break oracle for `prim_pairs`.
    fn prim_pairs_by_rescan(pins: &[GCell]) -> Vec<(GCell, GCell)> {
        let mut pairs = Vec::new();
        if pins.len() < 2 {
            return pairs;
        }
        let mut in_tree = vec![false; pins.len()];
        in_tree[0] = true;
        for _ in 1..pins.len() {
            let mut best: Option<(usize, usize, u32)> = None;
            for (i, &a) in pins.iter().enumerate() {
                if !in_tree[i] {
                    continue;
                }
                for (j, &b) in pins.iter().enumerate() {
                    if in_tree[j] {
                        continue;
                    }
                    let d = a.manhattan(&b);
                    if best.is_none_or(|(_, _, bd)| d < bd) {
                        best = Some((i, j, d));
                    }
                }
            }
            let (i, j, _) = best.expect("tree incomplete implies a remaining pin");
            in_tree[j] = true;
            pairs.push((pins[i], pins[j]));
        }
        pairs
    }

    #[test]
    fn prim_emits_the_rescan_order_on_tie_heavy_nets() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(16);
        for case in 0..300 {
            // Pins packed into a few columns and rows: most distances tie.
            let span = 2 + case % 7;
            let mut pins: Vec<GCell> = (0..rng.gen_range(0..40))
                .map(|_| GCell::new(rng.gen_range(0..span), rng.gen_range(0..span)))
                .collect();
            pins.sort_unstable();
            pins.dedup();
            let pairs = prim_pairs(&pins);
            let got: Vec<(GCell, GCell)> = pairs.iter().map(|tp| (tp.src, tp.dst)).collect();
            assert_eq!(got, prim_pairs_by_rescan(&pins), "{pins:?}");
            assert!(pairs.iter().all(|tp| tp.fanout == pins.len() as u32));
        }
    }

    #[test]
    fn prim_decomposes_a_3000_pin_net_within_a_second() {
        // An un-buffered enable/reset net: 3 000 distinct g-cells.
        let pins: Vec<GCell> = (0..3_000u32).map(|i| GCell::new(i / 40, i % 40)).collect();
        // This thread's CPU seconds, so a loaded test host cannot fail it.
        let t0 = eda_place::thread_cpu_seconds();
        let pairs = prim_pairs(&pins);
        let took = eda_place::thread_cpu_seconds() - t0;
        assert_eq!(pairs.len(), 2_999);
        assert!(pairs.iter().all(|tp| tp.src.manhattan(&tp.dst) == 1), "a full block spans at unit cost");
        assert!(took < 1.0, "3 000-pin Prim took {took:.2} s");
    }

    /// A `routeout v1` payload: the v2 fields plus the four partition
    /// diagnostics the region wave scheduler reported.
    fn route_outcome_text_v1(o: &RouteOutcome) -> String {
        let v2 = route_outcome_text(o);
        let (head, rest) = v2.split_once('\n').expect("a header line");
        format!("{} 1 {} 0 {}\n{rest}", head.replace("routeout v2", "routeout v1"), o.connections, o.iterations)
    }

    #[test]
    fn memoized_route_replays_bit_identically() {
        let (n, p) = placed(300, 11);
        for cfg in [RouteConfig::default(), RouteConfig { window_margin: 4, ..Default::default() }] {
            let plain = route(&n, &p, &cfg);
            let memo = MapMemo::new();
            // An entry the previous payload format wrote under this key reads
            // as a miss and is overwritten by the recomputed outcome.
            let pairs = decompose(&n, &p, cfg.grid_cells, cfg.grid_cells);
            let key = route_outcome_key(&cfg, &pairs);
            memo.store(ROUTE_OUTCOME_KIND, key, &route_outcome_text_v1(&plain));
            let cold = route_stats_memo(&n, &p, &cfg, Some(&memo));
            same_outcome(&cold, &plain, "cold");
            assert_eq!(memo.hits.get(), 1, "the cold run reads the v1 entry once");
            assert_eq!(memo.stores.get(), 2, "a v1 payload must not replay: the cold run recomputes and stores");
            let warm = route_stats_memo(&n, &p, &cfg, Some(&memo));
            same_outcome(&warm, &plain, "warm");
            assert_eq!(memo.hits.get(), 2, "the outcome entry is the only one addressed");
            assert_eq!(memo.stores.get(), 2, "identical input replays the whole outcome");
            assert_eq!(memo.map.borrow().len(), 1, "one entry per route, whatever the net count");
            assert!(memo.map.borrow()[&(ROUTE_OUTCOME_KIND.to_string(), key)].starts_with("routeout v2 "));
        }
    }

    /// The outcome key as the batched-schedule revision computed it: no
    /// schedule revision field, and the region size the config then held.
    fn route_outcome_key_rev1(cfg: &RouteConfig, region_size: u32, pairs: &[TwoPin]) -> u64 {
        let mut text = format!(
            "route|{:?}|{}|{}|{}|{:016x}|{:016x}|{}|{}|{}|{}\n",
            cfg.algorithm,
            cfg.deck.name,
            cfg.deck.layers,
            cfg.deck.tracks_per_layer,
            cfg.deck.track_derating.to_bits(),
            cfg.deck.via_cost.to_bits(),
            cfg.grid_cells,
            cfg.ripup_iterations,
            cfg.window_margin,
            region_size,
        );
        for tp in pairs {
            text.push_str(&format!("{} {} {} {} {}\n", tp.src.x, tp.src.y, tp.dst.x, tp.dst.y, tp.fanout));
        }
        fnv1a(text.bytes())
    }

    #[test]
    fn outcome_entries_of_the_batched_revision_are_never_addressed() {
        let (n, p) = placed(200, 4);
        let pairs = decompose(&n, &p, 32, 32);
        for (cfg, region_size) in [
            (RouteConfig::default(), 0),
            (RouteConfig { algorithm: RouteAlgorithm::AStar, ..Default::default() }, 0),
            (RouteConfig { window_margin: 8, ..Default::default() }, 16),
        ] {
            assert_ne!(route_outcome_key(&cfg, &pairs), route_outcome_key_rev1(&cfg, region_size, &pairs));
            assert_ne!(route_outcome_key(&cfg, &[]), route_outcome_key_rev1(&cfg, region_size, &[]));
        }
        // A store the parent filled: the entry sits under the old address and
        // would parse, but the lookup never reaches it.
        let memo = MapMemo::new();
        let cfg = RouteConfig::default();
        let stale = RouteOutcome { wirelength: 1, ..route(&n, &p, &cfg) };
        memo.store(ROUTE_OUTCOME_KIND, route_outcome_key_rev1(&cfg, 0, &pairs), &route_outcome_text(&stale));
        let out = route_stats_memo(&n, &p, &cfg, Some(&memo));
        assert_eq!(memo.hits.get(), 0, "the old address is never read");
        assert_ne!(out.wirelength, 1);
    }

    #[test]
    fn route_memo_misses_on_config_change() {
        let (n, p) = placed(200, 4);
        let memo = MapMemo::new();
        let cfg = RouteConfig::default();
        route_stats_memo(&n, &p, &cfg, Some(&memo));
        let edited = RouteConfig { ripup_iterations: 3, ..cfg };
        let out = route_stats_memo(&n, &p, &edited, Some(&memo));
        assert_eq!(memo.hits.get(), 0, "ripup budget is part of the outcome key");
        same_outcome(&out, &route(&n, &p, &edited), "edited");
    }

    #[test]
    fn all_algorithms_route_everything() {
        let (n, p) = placed(200, 4);
        for alg in [RouteAlgorithm::LeeBfs, RouteAlgorithm::AStar, RouteAlgorithm::LineSearch] {
            let out = route(&n, &p, &RouteConfig { algorithm: alg, ..Default::default() });
            assert!(out.connections > 0, "{alg:?}");
            assert!(out.wirelength > 0, "{alg:?}");
        }
    }

    #[test]
    fn negotiation_beats_baseline_on_overflow() {
        let (n, p) = placed(500, 9);
        // Small grid + few layers => heavy contention, but not so saturated
        // that negotiation has no room to move (a 2-layer 12-cell grid
        // overflows ~equally under every algorithm).
        let mk = |alg| RouteConfig {
            algorithm: alg,
            deck: RuleDeck::simple(3),
            grid_cells: 16,
            ripup_iterations: 8,
            ..Default::default()
        };
        let baseline = route(&n, &p, &mk(RouteAlgorithm::LeeBfs));
        let advanced = route(&n, &p, &mk(RouteAlgorithm::AStar));
        assert!(
            advanced.overflow < baseline.overflow,
            "negotiation {} must beat naive {}",
            advanced.overflow,
            baseline.overflow
        );
    }

    #[test]
    fn linesearch_does_less_work_than_maze_flood_on_sparse_decks() {
        // Domic's framing is line search vs classic (Lee) maze flooding: on
        // a sparse, simple deck the probes touch a sliver of the grid while
        // the wavefront floods most of it.
        let (n, p) = placed(200, 6);
        let mk = |alg| RouteConfig { algorithm: alg, grid_cells: 48, ..Default::default() };
        let maze = route(&n, &p, &mk(RouteAlgorithm::LeeBfs));
        let line = route(&n, &p, &mk(RouteAlgorithm::LineSearch));
        assert!(
            line.cells_expanded < maze.cells_expanded / 2,
            "line search {} should expand far fewer cells than Lee {}",
            line.cells_expanded,
            maze.cells_expanded
        );
    }

    #[test]
    fn more_layers_reduce_overflow() {
        let (n, p) = placed(600, 12);
        let overflow = [2u32, 4, 8].map(|l| {
            let cfg = RouteConfig { algorithm: RouteAlgorithm::AStar, ..Default::default() };
            route(&n, &p, &RouteConfig { deck: RuleDeck::simple(l), ..cfg }).overflow
        });
        assert!(overflow[0] >= overflow[1] && overflow[1] >= overflow[2]);
    }

    #[test]
    fn via_cost_tracked() {
        let (n, p) = placed(150, 2);
        let out = route(&n, &p, &RouteConfig::default());
        assert!(out.vias > 0);
        assert!(out.seconds >= 0.0);
    }

    #[test]
    fn windowed_routing_bounds_memory_and_stays_deterministic() {
        let (n, p) = placed(300, 5);
        for alg in [RouteAlgorithm::LeeBfs, RouteAlgorithm::AStar, RouteAlgorithm::LineSearch] {
            let full = route(&n, &p, &RouteConfig { algorithm: alg, ..Default::default() });
            if alg == RouteAlgorithm::LineSearch {
                // Line-search probes always clip to the connection's extent.
                assert!(full.peak_window_cells <= full.dense_grid_cells, "{alg:?}");
            } else {
                assert_eq!(
                    full.peak_window_cells, full.dense_grid_cells,
                    "{alg:?}: margin 0 searches the full grid"
                );
            }
            let windowed = RouteConfig { algorithm: alg, window_margin: 4, ..Default::default() };
            let serial = route(&n, &p, &windowed);
            assert!(
                serial.peak_window_cells < serial.dense_grid_cells,
                "{alg:?}: windowed peak {} must be below dense {}",
                serial.peak_window_cells,
                serial.dense_grid_cells
            );
            assert_eq!(serial.connections, full.connections);
            assert!(serial.wirelength > 0);
            same_outcome(&route(&n, &p, &windowed), &serial, &format!("{alg:?} rerun"));
        }
    }

    /// A search never turns back on itself, so every stored wire of a
    /// negotiated mesh route — first routes and rip-up re-routes alike — is
    /// its source, one corner per bend and its target.
    #[test]
    fn stored_wires_are_one_corner_per_bend() {
        let n = generate::scale_mesh(1_000, 3).unwrap();
        let p = place_global(&n, Die::for_netlist(&n, 0.7), &GlobalConfig::default());
        let cfg = RouteConfig {
            deck: RuleDeck::simple(2),
            grid_cells: 24,
            window_margin: 4,
            ..Default::default()
        };
        let pairs = decompose(&n, &p, cfg.grid_cells, cfg.grid_cells);
        let grid = RoutingGrid::new(cfg.grid_cells, cfg.grid_cells, &cfg.deck);
        let (out, wires) = route_decomposed(grid, pairs, &cfg, Instant::now(), true);
        assert!(out.iterations > 1, "{out:?}");
        let mut corners = 0;
        for wire in (0..wires.len()).filter_map(|i| wires.get(i)) {
            assert_eq!(wire.len() as u32, count_bends(wire) + 2, "{wire:?}");
            corners += wire.len() as u64;
        }
        assert!(corners < out.wirelength, "{corners} corners for {} edges", out.wirelength);
    }
}
