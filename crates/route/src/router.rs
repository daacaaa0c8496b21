//! The global router: net decomposition, algorithm selection, and
//! PathFinder-style negotiated rip-up and re-route.

use crate::grid::{DemandGrid, GCell, RoutingGrid};
use crate::linesearch::probe_window;
use crate::maze::{count_bends, Path, SearchWindow};
use crate::region::{OverlayGrid, RegionMap, RegionScheduler, RegionTask};
use crate::rules::RuleDeck;
use crate::scratch::{ScratchPool, SearchScratch};
use eda_place::Placement;
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
    /// Worker threads for the batched routing passes — the initial pass and
    /// every negotiated rip-up round (`0` = all cores). Batch composition
    /// never depends on this value, so outcomes are bit-identical for any
    /// thread count.
    pub threads: usize,
    /// Bounded-memory search window: `0` (the default) searches the full
    /// grid, exactly the classic behaviour. When positive, every maze
    /// search is confined to the connection's bounding box expanded by this
    /// many g-cells, so per-search scratch is proportional to the
    /// connection's extent instead of the grid area — the tiled mode the
    /// scale tier routes in. The window is a pure function of the
    /// connection, so outcomes remain bit-identical at any thread count.
    pub window_margin: u32,
    /// Region side length (g-cells) for the region-partitioned router:
    /// `0` (the default) keeps the legacy globally-batched passes. When
    /// positive (requires `window_margin > 0`), the grid is tiled into
    /// `region_size × region_size` regions and connections are scheduled
    /// through the seam-negotiation waves of [`crate::region`]:
    /// region-interior connections search *and commit* against private
    /// overlays with no cross-worker synchronization, seam-crossing
    /// connections are arbitrated in canonical order. The partition is a
    /// pure function of the grid dimensions and this knob — never of
    /// `threads` — and the result is bit-identical to the canonical
    /// serial schedule for any region size and any thread count.
    pub region_size: u32,
}

impl RouteConfig {
    /// The same configuration on a grid with half as many g-cells per side
    /// (floor 8). Coarser g-cells pool capacity across more tracks, which is
    /// the flow supervisor's recovery move when rip-up exhausts its budget
    /// with overflow remaining.
    pub fn coarsened(&self) -> RouteConfig {
        RouteConfig { grid_cells: (self.grid_cells / 2).max(8), ..self.clone() }
    }
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            algorithm: RouteAlgorithm::LineSearch,
            deck: RuleDeck::simple(6),
            grid_cells: 32,
            ripup_iterations: 6,
            threads: 1,
            window_margin: 0,
            region_size: 0,
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
    /// initial pass, then one entry per rip-up round). Thread-invariant:
    /// both passes batch in input order and commit in batch order, so the
    /// trajectory is identical at any thread count.
    pub ripup_overflow: Vec<u64>,
    /// Largest per-search scratch window materialized (g-cells). Equals
    /// [`RouteOutcome::dense_grid_cells`] when
    /// [`RouteConfig::window_margin`] is `0`; under tiled routing it is the
    /// bounded-memory bar the bench compares against the dense grid.
    pub peak_window_cells: u64,
    /// Scratch a full-grid search would have allocated (`width × height`) —
    /// the dense baseline bar.
    pub dense_grid_cells: u64,
    /// Regions in the partition (`0` = region routing off). Like the
    /// schedule diagnostics below, a pure function of the input and the
    /// config — identical at any thread count.
    pub regions: u32,
    /// Connections searched *and committed* region-locally against a
    /// private overlay (counted once per routing, so rip-up re-routes
    /// count again). Depends on the partition shape, never on `threads`.
    pub local_commits: u64,
    /// Seam-crossing connections arbitrated through boundary negotiation
    /// (same counting convention as [`RouteOutcome::local_commits`]).
    pub seam_conflicts: u64,
    /// Negotiation waves dispatched across all passes.
    pub negotiation_waves: u64,
}

impl RouteOutcome {
    /// Whether the route is overflow-free (manufacturable on this stack).
    pub fn is_clean(&self) -> bool {
        self.overflow == 0
    }
}

/// One 2-pin connection to route.
#[derive(Debug, Clone, Copy)]
struct TwoPin {
    src: GCell,
    dst: GCell,
    /// Distinct g-cell pins of the owning net — the fanout weight the
    /// region router's congestion-aware ordering uses.
    fanout: u32,
}

/// Decomposes every multi-pin net into a Prim MST over its g-cell pins.
///
/// Nets are independent, so the MSTs run through a `par_map` and the
/// per-net edge lists concatenate in net order — the pair list is
/// byte-identical to the serial loop at any thread count.
fn decompose(
    netlist: &Netlist,
    placement: &Placement,
    width: u32,
    height: u32,
    threads: usize,
) -> (Vec<TwoPin>, eda_par::ParStats) {
    let die = placement.die;
    let to_gcell = |p: eda_place::Point| -> GCell {
        let x = ((p.x / die.width_um * width as f64) as u32).min(width - 1);
        let y = ((p.y / die.height_um * height as f64) as u32).min(height - 1);
        GCell::new(x, y)
    };
    let ids: Vec<_> = netlist.nets().map(|(net_id, _)| net_id).collect();
    let (per_net, stats) = eda_par::par_map_stats(threads, &ids, |_, &net_id| {
        let pts = placement.net_points(netlist, net_id);
        let mut pins: Vec<GCell> = pts.into_iter().map(to_gcell).collect();
        pins.sort_unstable();
        pins.dedup();
        prim_pairs(&pins)
    });
    (per_net.into_iter().flatten().collect(), stats)
}

/// Prim MST on Manhattan distance over one net's deduplicated pin list — a
/// pure function of the pins, which is what makes per-net memoization sound.
///
/// O(pins²): every out-of-tree pin `j` carries its nearest in-tree pin as
/// the key `(distance, i)`, refreshed against each pin as it joins the
/// tree. Each step takes the smallest `(distance, i, j)`, which is the pair
/// a scan of all in-tree × out-of-tree pairs in index order with a strict
/// `<` would stop at — the emitted sequence is part of the `route.net` memo
/// payload and of `route_outcome_key`, so ties must not move.
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

/// [`decompose`] with per-net memoization: each net's MST pair list is keyed
/// on its deduplicated g-cell pins, so warm runs (and other designs that
/// place a net onto the same cells) skip the O(pins²) Prim scan. Memo
/// probes and stores happen on the orchestrating thread; only the missing
/// nets fan out through `par_map`. The pair list is byte-identical to
/// [`decompose`]'s for any memo state.
fn decompose_memo(
    netlist: &Netlist,
    placement: &Placement,
    width: u32,
    height: u32,
    threads: usize,
    memo: &dyn SubstageMemo,
) -> (Vec<TwoPin>, eda_par::ParStats) {
    let die = placement.die;
    let to_gcell = |p: eda_place::Point| -> GCell {
        let x = ((p.x / die.width_um * width as f64) as u32).min(width - 1);
        let y = ((p.y / die.height_um * height as f64) as u32).min(height - 1);
        GCell::new(x, y)
    };
    let ids: Vec<_> = netlist.nets().map(|(net_id, _)| net_id).collect();
    let mut per_net: Vec<Option<Vec<TwoPin>>> = vec![None; ids.len()];
    let mut miss_at: Vec<usize> = Vec::new();
    let mut miss_pins: Vec<Vec<GCell>> = Vec::new();
    let mut miss_keys: Vec<u64> = Vec::new();
    for (i, &net_id) in ids.iter().enumerate() {
        let pts = placement.net_points(netlist, net_id);
        let mut pins: Vec<GCell> = pts.into_iter().map(to_gcell).collect();
        pins.sort_unstable();
        pins.dedup();
        if pins.len() < 2 {
            per_net[i] = Some(Vec::new());
            continue;
        }
        let key = net_pins_key(&pins);
        match memo.load(ROUTE_NET_KIND, key).and_then(|p| parse_net_pairs(&p)) {
            Some(pairs) => per_net[i] = Some(pairs),
            None => {
                miss_at.push(i);
                miss_pins.push(pins);
                miss_keys.push(key);
            }
        }
    }
    let (computed, stats) =
        eda_par::par_map_stats(threads, &miss_pins, |_, pins| prim_pairs(pins));
    for ((&i, key), pairs) in miss_at.iter().zip(miss_keys).zip(computed) {
        memo.store(ROUTE_NET_KIND, key, &net_pairs_text(&pairs));
        per_net[i] = Some(pairs);
    }
    (per_net.into_iter().flatten().flatten().collect(), stats)
}

/// Memo key for one net's MST: FNV over the deduplicated pin cells.
fn net_pins_key(pins: &[GCell]) -> u64 {
    let mut text = String::with_capacity(8 * pins.len() + 8);
    text.push_str("net|");
    for p in pins {
        text.push_str(&format!("{},{};", p.x, p.y));
    }
    fnv1a(text.bytes())
}

fn net_pairs_text(pairs: &[TwoPin]) -> String {
    let mut out = format!("netmst v1 {}\n", pairs.len());
    for tp in pairs {
        out.push_str(&format!(
            "tp {} {} {} {} {}\n",
            tp.src.x, tp.src.y, tp.dst.x, tp.dst.y, tp.fanout
        ));
    }
    out.push_str("end\n");
    out
}

fn parse_net_pairs(text: &str) -> Option<Vec<TwoPin>> {
    let mut lines = text.lines();
    let mut hf = lines.next()?.split(' ');
    if hf.next()? != "netmst" || hf.next()? != "v1" {
        return None;
    }
    let n: usize = hf.next()?.parse().ok()?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let mut f = lines.next()?.split(' ');
        if f.next()? != "tp" {
            return None;
        }
        let sx: u32 = f.next()?.parse().ok()?;
        let sy: u32 = f.next()?.parse().ok()?;
        let dx: u32 = f.next()?.parse().ok()?;
        let dy: u32 = f.next()?.parse().ok()?;
        let fanout: u32 = f.next()?.parse().ok()?;
        pairs.push(TwoPin { src: GCell::new(sx, sy), dst: GCell::new(dx, dy), fanout });
    }
    if lines.next()? != "end" || lines.next().is_some() {
        return None;
    }
    Some(pairs)
}

fn commit(grid: &mut RoutingGrid, path: &Path, delta: i32) {
    for w in path.windows(2) {
        grid.add_usage(w[0], w[1], delta);
    }
}

/// Pure per-connection search against an immutable demand view — the only
/// route computation, shared by the legacy batched passes, the region
/// waves (where the view is a private [`OverlayGrid`]), and the rip-up
/// re-routes. Returns `(path, linesearch_fell_back, expanded, scratch)`.
/// The result depends only on the demand values and the window, so every
/// schedule that presents the canonical demand state gets the canonical
/// path.
fn route_one_in<G: DemandGrid>(
    grid: &G,
    tp: &TwoPin,
    win: SearchWindow,
    cfg: &RouteConfig,
    scratch: &mut SearchScratch,
) -> (Path, bool, u64, u64) {
    let via_cost = cfg.deck.via_cost;
    match cfg.algorithm {
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
            // Windowed mode clips the probes to the same bounded window
            // the maze fallback searches; margin 0 keeps the classic
            // connection-extent window.
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
    }
}

/// Axis-aligned bounding box of a connection, expanded by `margin` g-cells
/// and clamped to the grid: `(x0, y0, x1, y1)` inclusive.
fn expanded_bbox(tp: &TwoPin, margin: u32, w: u32, h: u32) -> (u32, u32, u32, u32) {
    let x0 = tp.src.x.min(tp.dst.x).saturating_sub(margin);
    let y0 = tp.src.y.min(tp.dst.y).saturating_sub(margin);
    let x1 = (tp.src.x.max(tp.dst.x) + margin).min(w - 1);
    let y1 = (tp.src.y.max(tp.dst.y) + margin).min(h - 1);
    (x0, y0, x1, y1)
}

fn boxes_disjoint(a: &(u32, u32, u32, u32), b: &(u32, u32, u32, u32)) -> bool {
    a.2 < b.0 || b.2 < a.0 || a.3 < b.1 || b.3 < a.1
}

/// Cap on how many connections share one parallel batch, keeping the
/// congestion picture each batch routes against reasonably fresh. A fixed
/// constant: batch composition must never depend on the thread count.
const MAX_BATCH: usize = 16;

/// Routes a placed netlist.
///
/// The baseline [`RouteAlgorithm::LeeBfs`] routes each connection once in
/// arbitrary order with no congestion awareness; the advanced algorithms run
/// negotiated rip-up and re-route until clean or the iteration budget is
/// spent.
pub fn route(netlist: &Netlist, placement: &Placement, cfg: &RouteConfig) -> RouteOutcome {
    route_stats(netlist, placement, cfg).0
}

/// [`route`] returning the accumulated parallel-execution record of the
/// batched passes (for scaling reports).
///
/// Both the initial pass and every negotiated rip-up round group their
/// worklist (the distance-sorted connection list, respectively the
/// input-ordered victims of the round) into batches of pairwise
/// bbox-disjoint connections (greedy scan, fixed [`MAX_BATCH`] cap). Every
/// batch member routes against the same immutable grid snapshot and commits
/// sequentially in batch order, so batch composition and every path depend
/// only on the input — outcomes, including the `ripup_overflow` trajectory,
/// are bit-identical for any `threads`. Conflicting nets never share a
/// batch, so each still sees the other's freshly committed usage.
pub fn route_stats(
    netlist: &Netlist,
    placement: &Placement,
    cfg: &RouteConfig,
) -> (RouteOutcome, eda_par::ParStats) {
    let (outcome, stats, _) = route_stats_memo(netlist, placement, cfg, None);
    (outcome, stats)
}

/// Memo kind for per-net MST decomposition entries.
pub const ROUTE_NET_KIND: &str = "route.net";
/// Memo kind for whole-outcome route replay entries.
pub const ROUTE_OUTCOME_KIND: &str = "route.outcome";

/// [`route_stats`] with an optional sub-stage memo, at two granularities:
///
/// * **per net** ([`ROUTE_NET_KIND`]) — each net's MST decomposition, keyed
///   on its g-cell pins, replays without re-running Prim;
/// * **whole outcome** ([`ROUTE_OUTCOME_KIND`]) — the final
///   [`RouteOutcome`], keyed on the decomposed connection list plus every
///   route-relevant config field (never `threads`), replays without
///   touching the grid at all.
///
/// Paths between those granularities (per connection) are deliberately not
/// memoized: a path depends on the demand committed by every previously
/// routed connection, so replaying one out of context would break the
/// bit-identity contract. The third return value reports whether the
/// outcome was replayed (`seconds` is near-zero and the [`ParStats`] empty
/// in that case — callers skip their kernel telemetry so replayed and
/// recomputed runs stay comparable).
///
/// [`ParStats`]: eda_par::ParStats
pub fn route_stats_memo(
    netlist: &Netlist,
    placement: &Placement,
    cfg: &RouteConfig,
    memo: Option<&dyn SubstageMemo>,
) -> (RouteOutcome, eda_par::ParStats, bool) {
    let start = Instant::now();
    let w = cfg.grid_cells.max(2);
    let h = cfg.grid_cells.max(2);
    let grid = RoutingGrid::new(w, h, &cfg.deck);
    let (decomposed, decompose_stats) = match memo {
        Some(m) => decompose_memo(netlist, placement, w, h, cfg.threads, m),
        None => decompose(netlist, placement, w, h, cfg.threads),
    };
    if let Some(m) = memo {
        let key = route_outcome_key(cfg, &decomposed);
        if let Some(out) =
            m.load(ROUTE_OUTCOME_KIND, key).and_then(|p| parse_route_outcome(&p, start))
        {
            return (out, eda_par::ParStats::empty(), true);
        }
        let (outcome, stats) = route_decomposed(grid, decomposed, decompose_stats, cfg, start);
        m.store(ROUTE_OUTCOME_KIND, key, &route_outcome_text(&outcome));
        return (outcome, stats, false);
    }
    let (outcome, stats) = route_decomposed(grid, decomposed, decompose_stats, cfg, start);
    (outcome, stats, false)
}

/// Memo key for the whole-outcome entry: FNV over the route-relevant config
/// (algorithm, deck, grid, budgets, window/region shape — everything but
/// `threads`, which outcomes are invariant to) and the decomposed
/// connection list.
fn route_outcome_key(cfg: &RouteConfig, pairs: &[TwoPin]) -> u64 {
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
        cfg.region_size,
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
        "routeout v1 {} {} {} {} {} {} {} {} {} {} {} {} {}\n",
        o.wirelength,
        o.vias,
        o.overflow,
        o.connections,
        o.linesearch_fallbacks,
        o.cells_expanded,
        o.iterations,
        o.peak_window_cells,
        o.dense_grid_cells,
        o.regions,
        o.local_commits,
        o.seam_conflicts,
        o.negotiation_waves,
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
    if f.next()? != "routeout" || f.next()? != "v1" {
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
        regions: f.next()?.parse().ok()?,
        local_commits: f.next()?.parse().ok()?,
        seam_conflicts: f.next()?.parse().ok()?,
        negotiation_waves: f.next()?.parse().ok()?,
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

/// Routes an already-decomposed connection list — the shared back half of
/// [`route_stats`] and [`route_stats_memo`].
fn route_decomposed(
    mut grid: RoutingGrid,
    decomposed: Vec<TwoPin>,
    decompose_stats: eda_par::ParStats,
    cfg: &RouteConfig,
    start: Instant,
) -> (RouteOutcome, eda_par::ParStats) {
    let w = cfg.grid_cells.max(2);
    let h = cfg.grid_cells.max(2);
    if cfg.region_size > 0 && cfg.window_margin > 0 {
        let mut stats = eda_par::ParStats::empty();
        stats.absorb(&decompose_stats);
        return route_region(grid, decomposed, cfg, start, stats);
    }
    // Search scratch lives exactly as long as this route call: one per
    // concurrently routing batch member, reused across batches and rounds.
    let pool = ScratchPool::default();
    let mut pairs = decomposed;
    // Long connections first (they need the straightest resources).
    pairs.sort_by_key(|p| std::cmp::Reverse(p.src.manhattan(&p.dst)));

    let mut paths: Vec<Option<Path>> = vec![None; pairs.len()];
    let mut fallbacks = 0usize;
    let mut expanded = 0u64;
    let mut peak_window = 0u64;
    // Legacy stats deliberately exclude the decompose dispatch so the
    // chunk counts in the pinned telemetry goldens stay what they were.
    let mut stats = eda_par::ParStats::empty();

    // The search window depends only on the connection and the config, so
    // windowed routing is as thread-invariant as full-grid routing.
    let route_one = |grid: &RoutingGrid, tp: &TwoPin| -> (Path, bool, u64, u64) {
        let win = if cfg.window_margin > 0 {
            SearchWindow::around(tp.src, tp.dst, cfg.window_margin, grid)
        } else {
            SearchWindow::full(grid)
        };
        pool.with(|scratch| route_one_in(grid, tp, win, cfg, scratch))
    };

    // Peels the first greedy batch of pairwise bbox-disjoint connections
    // off an ordered worklist; returns `(batch, rest)`. Pure function of
    // the worklist order — never of the thread count.
    let peel_batch = |work: &[usize]| -> (Vec<usize>, Vec<usize>) {
        let mut batch: Vec<usize> = Vec::new();
        let mut boxes: Vec<(u32, u32, u32, u32)> = Vec::new();
        let mut rest: Vec<usize> = Vec::new();
        for &i in work {
            let bb = expanded_bbox(&pairs[i], 1, w, h);
            if batch.len() < MAX_BATCH && boxes.iter().all(|b| boxes_disjoint(b, &bb)) {
                batch.push(i);
                boxes.push(bb);
            } else {
                rest.push(i);
            }
        }
        (batch, rest)
    };

    // Initial routing pass: fixed-size batches in distance-sorted order.
    // The grid starts empty, so intra-batch congestion feedback is worth
    // little here — full-width batches keep every worker busy through the
    // expensive long connections, and negotiation repairs any overlap the
    // batching admits. (Rip-up rounds, where freshness matters, use the
    // bbox-disjoint peeling below instead.)
    let order: Vec<usize> = (0..pairs.len()).collect();
    for batch in order.chunks(MAX_BATCH) {
        let (routed, s) = {
            let grid = &grid;
            eda_par::par_map_stats(cfg.threads, batch, |_, &i| route_one(grid, &pairs[i]))
        };
        stats.absorb(&s);
        for (&i, (p, fb, ex, sc)) in batch.iter().zip(routed) {
            fallbacks += fb as usize;
            expanded += ex;
            peak_window = peak_window.max(sc);
            commit(&mut grid, &p, 1);
            paths[i] = Some(p);
        }
    }

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
            // Victims of this round: paths traversing a congested edge, in
            // input order. Scheduling them into bbox-disjoint batches lets
            // the re-routes run in parallel while later batches still
            // observe earlier batches' freshly committed usage. The dense
            // router treats at-capacity edges as congested (aggressive, fine
            // on small grids); the windowed scale router only rips paths on
            // strictly overflowed edges — at scale most edges sit near
            // capacity and the aggressive rule churns thousands of paths per
            // residual overflow unit without converging.
            let congested = |grid: &RoutingGrid, a: GCell, b: GCell| {
                if cfg.window_margin > 0 {
                    grid.is_overflowed(a, b)
                } else {
                    grid.is_full(a, b)
                }
            };
            let mut victims: Vec<usize> = (0..pairs.len())
                .filter(|&i| {
                    paths[i]
                        .as_ref()
                        .is_some_and(|p| p.windows(2).any(|win| congested(&grid, win[0], win[1])))
                })
                .collect();
            while !victims.is_empty() {
                let (batch, rest) = peel_batch(&victims);
                for &i in &batch {
                    let old = paths[i].take().expect("path exists");
                    commit(&mut grid, &old, -1);
                }
                let (routed, s) = {
                    let grid = &grid;
                    eda_par::par_map_stats(cfg.threads, &batch, |_, &i| route_one(grid, &pairs[i]))
                };
                stats.absorb(&s);
                for (&i, (p, fb, ex, sc)) in batch.iter().zip(routed) {
                    fallbacks += fb as usize;
                    expanded += ex;
                    peak_window = peak_window.max(sc);
                    commit(&mut grid, &p, 1);
                    paths[i] = Some(p);
                }
                victims = rest;
            }
            ripup_overflow.push(grid.total_overflow());
        }
    }

    let vias: u64 = paths.iter().flatten().map(|p| count_bends(p) as u64).sum();
    let outcome = RouteOutcome {
        wirelength: grid.total_usage(),
        vias,
        overflow: grid.total_overflow(),
        connections: pairs.len(),
        linesearch_fallbacks: fallbacks,
        cells_expanded: expanded,
        seconds: start.elapsed().as_secs_f64(),
        iterations,
        ripup_overflow,
        peak_window_cells: peak_window,
        dense_grid_cells: w as u64 * h as u64,
        regions: 0,
        local_commits: 0,
        seam_conflicts: 0,
        negotiation_waves: 0,
    };
    (outcome, stats)
}

/// One task's routed connections: `(queue item, (path, used line-search
/// fallback, cells expanded, peak window cells))`, in task order.
type TaskResults = Vec<(u32, (Path, bool, u64, u64))>;

/// Running totals across all wave passes of one region-mode route.
#[derive(Default)]
struct WaveTally {
    local_commits: u64,
    seam_conflicts: u64,
    waves: u64,
    fallbacks: usize,
    expanded: u64,
    peak_window: u64,
}

/// Routes `items` (pair indices in canonical rank order) through the
/// seam-negotiation wave scheduler, committing every result into `grid`
/// and `paths`. One `eda-par` dispatch per wave: interior runs are
/// region-sized batch tasks (hundreds of window searches amortize one
/// dispatch), seam connections are singleton tasks against the committed
/// grid. See [`crate::region`] for why the outcome is bit-identical to
/// routing `items` serially in order, for any region size or thread
/// count.
#[allow(clippy::too_many_arguments)]
fn run_wave_pass(
    grid: &mut RoutingGrid,
    pairs: &[TwoPin],
    items: &[u32],
    map: RegionMap,
    cfg: &RouteConfig,
    paths: &mut [Option<Path>],
    pool: &ScratchPool,
    stats: &mut eda_par::ParStats,
    tally: &mut WaveTally,
) {
    let windows: Vec<SearchWindow> = items
        .iter()
        .map(|&i| {
            let tp = &pairs[i as usize];
            SearchWindow::around_dims(tp.src, tp.dst, cfg.window_margin, grid.width, grid.height)
        })
        .collect();
    let mut sched = RegionScheduler::new(map, &windows);
    // Dispatch balancing: `par_tasks_stats_at` pins dispatch position p to
    // worker (p + offset) mod K, so the permutation and offset we dispatch
    // with decide the per-worker CPU split. Waves are small (a handful of
    // tasks) and the scheduler emits the heavy interior batches first, so
    // naive order piles every wave's big task onto worker 0. Instead we
    // keep a per-worker ledger of *measured* busy seconds, greedily hand
    // each wave's costliest task to the least-loaded worker with a free
    // stripe slot, and re-anchor the ledger to the measured per-worker
    // clocks after every wave, so cost-model error never accumulates.
    // This is pure execution placement: the commit loop below still walks
    // `wave` in canonical order, so QoR is bit-identical regardless of
    // which worker ran what.
    let workers = eda_par::resolve_threads(cfg.threads).max(1);
    // Measured busy seconds per worker slot, across all waves so far.
    let mut measured = vec![0.0f64; workers];
    // Conversion from cost-proxy units to seconds, re-fit every wave.
    let mut est_dispatched = 0u64;
    let mut busy_total = 0.0f64;
    while sched.remaining() > 0 {
        let wave = sched.next_wave();
        if wave.is_empty() {
            break;
        }
        tally.waves += 1;
        // Cost proxy per connection: window perimeter, ~ the path length a
        // successful line search walks. Window *area* (the A*-fallback
        // bound) overweights long connections quadratically and skews the
        // ledger when most connections line-search-route.
        let est = |item: u32| -> u64 {
            let w = &windows[item as usize];
            (w.width() + w.height()) as u64
        };
        let cost = |task: &RegionTask| -> u64 {
            match *task {
                RegionTask::Interior { region, start, len } => sched.queue(region)
                    [start as usize..(start + len) as usize]
                    .iter()
                    .map(|&item| est(item))
                    .sum(),
                RegionTask::Seam { item } => est(item),
            }
        };
        let n = wave.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&t| std::cmp::Reverse(cost(&wave[t])));
        // Rotate the stripe so position 0 of this wave lands on the
        // least-loaded worker (small waves would otherwise always hit
        // slot 0), then greedily fill: worker w owns positions p with
        // (p + o) % K == w, a fixed slot count per wave; within that
        // constraint hand each task (costliest first) to the least-loaded
        // worker with a free slot. `load` starts from the measured clocks
        // and grows by predicted task seconds as the wave fills.
        let calib = if est_dispatched > 0 { busy_total / est_dispatched as f64 } else { 0.0 };
        let mut load = measured.clone();
        let min_slot = |load: &[f64], free: &dyn Fn(usize) -> bool| -> usize {
            let mut best = usize::MAX;
            for w in 0..workers {
                if free(w) && (best == usize::MAX || load[w] < load[best]) {
                    best = w;
                }
            }
            best
        };
        let o = min_slot(&load, &|_| true).min(workers - 1);
        let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); workers];
        for &t in &order {
            let w = min_slot(&load, &|w| {
                let first = (w + workers - o) % workers;
                assigned[w].len() < (n + workers - 1).saturating_sub(first) / workers
            });
            let w = if w == usize::MAX { o } else { w };
            load[w] += cost(&wave[t]) as f64 * calib;
            assigned[w].push(t);
        }
        let mut dispatch = vec![0usize; n];
        for (w, tasks) in assigned.iter().enumerate() {
            let first = (w + workers - o) % workers;
            for (q, &t) in tasks.iter().enumerate() {
                dispatch[first + q * workers] = t;
            }
        }
        est_dispatched += dispatch.iter().map(|&t| cost(&wave[t])).sum::<u64>();
        let jobs: Vec<&RegionTask> = dispatch.iter().map(|&t| &wave[t]).collect();
        let (results, s) = {
            let grid: &RoutingGrid = grid;
            let sched = &sched;
            let windows = &windows;
            // Immutable view for the workers; old paths are only swapped
            // out in the canonical commit loop after the dispatch returns.
            let paths: &[Option<Path>] = paths;
            let run_task = |task: &RegionTask, scratch: &mut SearchScratch| match *task {
                RegionTask::Interior { region, start, len } => {
                    let mut overlay = OverlayGrid::new(grid, map.rect(region));
                    let run = &sched.queue(region)[start as usize..(start + len) as usize];
                    let mut out = Vec::with_capacity(len as usize);
                    for &item in run {
                        let pair = items[item as usize] as usize;
                        // Rip-up victim: hide its own old demand from the
                        // view; the shared grid keeps it until commit.
                        if let Some(old) = &paths[pair] {
                            overlay.uncommit(old);
                        }
                        let win = windows[item as usize];
                        let r = route_one_in(&overlay, &pairs[pair], win, cfg, scratch);
                        overlay.commit(&r.0);
                        out.push((item, r));
                    }
                    out
                }
                RegionTask::Seam { item } => {
                    let pair = items[item as usize] as usize;
                    let win = windows[item as usize];
                    let r = if let Some(old) = &paths[pair] {
                        let mut overlay = OverlayGrid::new(grid, (win.x0, win.y0, win.x1, win.y1));
                        overlay.uncommit(old);
                        route_one_in(&overlay, &pairs[pair], win, cfg, scratch)
                    } else {
                        route_one_in(grid, &pairs[pair], win, cfg, scratch)
                    };
                    vec![(item, r)]
                }
            };
            // One scratch checkout per task: an interior run amortises it
            // over every connection of the run.
            eda_par::par_tasks_stats_at(cfg.threads, o, &jobs, |_, task| {
                pool.with(|scratch| run_task(task, scratch))
            })
        };
        stats.absorb(&s);
        for (w, b) in s.busy_s.iter().enumerate().take(workers) {
            measured[w] += b;
            busy_total += b;
        }
        let mut by_task: Vec<Option<TaskResults>> = wave.iter().map(|_| None).collect();
        for (j, r) in results.into_iter().enumerate() {
            by_task[dispatch[j]] = Some(r);
        }
        for (task, routed) in wave.iter().zip(by_task) {
            let seam = matches!(task, RegionTask::Seam { .. });
            let routed = routed.unwrap_or_default();
            for (item, (p, fb, ex, sc)) in routed {
                tally.fallbacks += fb as usize;
                tally.expanded += ex;
                tally.peak_window = tally.peak_window.max(sc);
                if seam {
                    tally.seam_conflicts += 1;
                } else {
                    tally.local_commits += 1;
                }
                let pair = items[item as usize] as usize;
                if let Some(old) = paths[pair].take() {
                    commit(grid, &old, -1);
                }
                commit(grid, &p, 1);
                paths[pair] = Some(p);
            }
        }
        sched.advance(&wave);
    }
}

/// The region-partitioned route path: congestion-aware canonical
/// ordering, wave-scheduled initial pass, then negotiated rip-up rounds
/// whose victims (canonical order, strict-overflow rule) are uncommitted
/// up front and re-routed through the same wave machinery.
fn route_region(
    mut grid: RoutingGrid,
    pairs: Vec<TwoPin>,
    cfg: &RouteConfig,
    start: Instant,
    mut stats: eda_par::ParStats,
) -> (RouteOutcome, eda_par::ParStats) {
    let (w, h) = (grid.width, grid.height);
    let map = RegionMap::new(w, h, cfg.region_size);
    // Canonical rank order — the serial schedule every wave execution is
    // bit-identical to. Long, high-fanout connections first: they need
    // the straightest resources, and routing them into an empty grid
    // instead of a congested one is what cuts rip-up rounds.
    let mut order: Vec<u32> = (0..pairs.len() as u32).collect();
    order.sort_by_key(|&i| {
        let p = &pairs[i as usize];
        std::cmp::Reverse(p.src.manhattan(&p.dst) + 2 * p.fanout.saturating_sub(2))
    });

    let mut paths: Vec<Option<Path>> = vec![None; pairs.len()];
    let mut tally = WaveTally::default();
    // Search scratch lives exactly as long as this route call: one per
    // concurrently running wave task, reused across waves and rounds.
    let pool = ScratchPool::default();
    run_wave_pass(&mut grid, &pairs, &order, map, cfg, &mut paths, &pool, &mut stats, &mut tally);

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
            // Victims in canonical order: every path on a strictly
            // overflowed edge (the scale rule — region mode requires a
            // positive window margin). Old paths stay committed until each
            // victim's own canonical commit slot — see the rip-up
            // semantics note in [`crate::region`]; ripping everything up
            // front lets re-routes re-take the same shortest paths and
            // never converges at scale.
            let victims: Vec<u32> = order
                .iter()
                .copied()
                .filter(|&i| {
                    paths[i as usize]
                        .as_ref()
                        .is_some_and(|p| p.windows(2).any(|e| grid.is_overflowed(e[0], e[1])))
                })
                .collect();
            run_wave_pass(
                &mut grid, &pairs, &victims, map, cfg, &mut paths, &pool, &mut stats, &mut tally,
            );
            ripup_overflow.push(grid.total_overflow());
        }
    }

    let vias: u64 = paths.iter().flatten().map(|p| count_bends(p) as u64).sum();
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
        regions: map.count() as u32,
        local_commits: tally.local_commits,
        seam_conflicts: tally.seam_conflicts,
        negotiation_waves: tally.waves,
    };
    (outcome, stats)
}

/// Routes the same placement across a sweep of layer counts, reporting which
/// stacks close overflow-free — the data behind the 6-layer → 4-layer cost
/// claim (C5).
pub fn layer_sweep(
    netlist: &Netlist,
    placement: &Placement,
    layers: impl IntoIterator<Item = u32>,
    algorithm: RouteAlgorithm,
) -> Vec<(u32, RouteOutcome)> {
    layers
        .into_iter()
        .map(|l| {
            let cfg = RouteConfig {
                algorithm,
                deck: RuleDeck::simple(l),
                ..Default::default()
            };
            (l, route(netlist, placement, &cfg))
        })
        .collect()
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

    struct MapMemo {
        map: std::cell::RefCell<std::collections::HashMap<(String, u64), String>>,
        hits: std::cell::Cell<usize>,
    }

    impl MapMemo {
        fn new() -> MapMemo {
            MapMemo {
                map: std::cell::RefCell::new(std::collections::HashMap::new()),
                hits: std::cell::Cell::new(0),
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
            self.map.borrow_mut().insert((kind.to_string(), key), payload.to_string());
        }
    }

    fn same_outcome(a: &RouteOutcome, b: &RouteOutcome) {
        assert_eq!(a.wirelength, b.wirelength);
        assert_eq!(a.vias, b.vias);
        assert_eq!(a.overflow, b.overflow);
        assert_eq!(a.connections, b.connections);
        assert_eq!(a.linesearch_fallbacks, b.linesearch_fallbacks);
        assert_eq!(a.cells_expanded, b.cells_expanded);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.ripup_overflow, b.ripup_overflow);
        assert_eq!(a.peak_window_cells, b.peak_window_cells);
        assert_eq!(a.dense_grid_cells, b.dense_grid_cells);
        assert_eq!(a.regions, b.regions);
        assert_eq!(a.local_commits, b.local_commits);
        assert_eq!(a.seam_conflicts, b.seam_conflicts);
        assert_eq!(a.negotiation_waves, b.negotiation_waves);
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
        let t0 = eda_par::thread_cpu_seconds();
        let pairs = prim_pairs(&pins);
        let took = eda_par::thread_cpu_seconds() - t0;
        assert_eq!(pairs.len(), 2_999);
        assert!(pairs.iter().all(|tp| tp.src.manhattan(&tp.dst) == 1), "a full block spans at unit cost");
        assert!(took < 1.0, "3 000-pin Prim took {took:.2} s");
    }

    #[test]
    fn memoized_route_replays_bit_identically() {
        let (n, p) = placed(300, 11);
        for cfg in [
            RouteConfig::default(),
            RouteConfig { window_margin: 4, region_size: 16, ..Default::default() },
        ] {
            let (plain, _) = route_stats(&n, &p, &cfg);
            let memo = MapMemo::new();
            let (cold, _, cold_replayed) = route_stats_memo(&n, &p, &cfg, Some(&memo));
            assert!(!cold_replayed);
            same_outcome(&cold, &plain);
            assert_eq!(memo.hits.get(), 0, "cold run must not hit");
            let (warm, _, warm_replayed) = route_stats_memo(&n, &p, &cfg, Some(&memo));
            assert!(warm_replayed, "identical input replays the whole outcome");
            same_outcome(&warm, &plain);
            assert!(memo.hits.get() > n.nets().count() / 2, "per-net MSTs hit too");
        }
    }

    #[test]
    fn route_memo_misses_on_config_change() {
        let (n, p) = placed(200, 4);
        let memo = MapMemo::new();
        let cfg = RouteConfig::default();
        route_stats_memo(&n, &p, &cfg, Some(&memo));
        let edited = RouteConfig { ripup_iterations: 3, ..cfg };
        let (out, _, replayed) = route_stats_memo(&n, &p, &edited, Some(&memo));
        assert!(!replayed, "ripup budget is part of the outcome key");
        let (plain, _) = route_stats(&n, &p, &edited);
        same_outcome(&out, &plain);
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
        let sweep = layer_sweep(&n, &p, [2u32, 4, 8], RouteAlgorithm::AStar);
        let overflow: Vec<u64> = sweep.iter().map(|(_, o)| o.overflow).collect();
        assert!(overflow[0] >= overflow[1] && overflow[1] >= overflow[2]);
    }

    #[test]
    fn threaded_routing_matches_serial_exactly() {
        let (n, p) = placed(300, 3);
        for alg in [RouteAlgorithm::LeeBfs, RouteAlgorithm::AStar, RouteAlgorithm::LineSearch] {
            let serial = route(&n, &p, &RouteConfig { algorithm: alg, ..Default::default() });
            for threads in [2, 4, 8] {
                let cfg = RouteConfig { algorithm: alg, threads, ..Default::default() };
                let (par, stats) = route_stats(&n, &p, &cfg);
                assert_eq!(par.wirelength, serial.wirelength, "{alg:?} threads={threads}");
                assert_eq!(par.vias, serial.vias, "{alg:?} threads={threads}");
                assert_eq!(par.overflow, serial.overflow, "{alg:?} threads={threads}");
                assert_eq!(par.connections, serial.connections);
                assert_eq!(par.linesearch_fallbacks, serial.linesearch_fallbacks);
                assert_eq!(par.cells_expanded, serial.cells_expanded);
                assert_eq!(par.iterations, serial.iterations);
                assert!(stats.chunks > 0);
            }
        }
    }

    #[test]
    fn via_cost_tracked() {
        let (n, p) = placed(150, 2);
        let out = route(&n, &p, &RouteConfig::default());
        assert!(out.vias > 0);
        assert!(out.seconds >= 0.0);
    }

    #[test]
    fn region_routing_is_partition_and_thread_invariant() {
        let (n, p) = placed(300, 5);
        for alg in [RouteAlgorithm::AStar, RouteAlgorithm::LineSearch] {
            // Canonical serial reference: one region covering the whole
            // 32-cell grid, so the wave machinery degenerates to routing
            // the canonical order in a single task.
            let base = RouteConfig {
                algorithm: alg,
                window_margin: 4,
                region_size: 64,
                ..Default::default()
            };
            let reference = route(&n, &p, &base);
            assert_eq!(reference.regions, 1, "{alg:?}");
            assert_eq!(reference.seam_conflicts, 0, "{alg:?}");
            // Every connection routes locally at least once; rip-up
            // re-routes count again.
            assert!(reference.local_commits as usize >= reference.connections);
            for region_size in [3, 5, 8, 13, 16] {
                for threads in [1, 4] {
                    let cfg =
                        RouteConfig { region_size, threads, ..base.clone() };
                    let out = route(&n, &p, &cfg);
                    let tag = format!("{alg:?} size={region_size} threads={threads}");
                    assert_eq!(out.wirelength, reference.wirelength, "{tag}");
                    assert_eq!(out.vias, reference.vias, "{tag}");
                    assert_eq!(out.overflow, reference.overflow, "{tag}");
                    assert_eq!(out.cells_expanded, reference.cells_expanded, "{tag}");
                    assert_eq!(
                        out.linesearch_fallbacks, reference.linesearch_fallbacks,
                        "{tag}"
                    );
                    assert_eq!(out.ripup_overflow, reference.ripup_overflow, "{tag}");
                    assert_eq!(out.peak_window_cells, reference.peak_window_cells, "{tag}");
                    assert_eq!(out.iterations, reference.iterations, "{tag}");
                    assert!(out.regions > 1, "{tag}");
                    assert_eq!(
                        out.local_commits + out.seam_conflicts,
                        reference.local_commits,
                        "{tag}: every routing is local or seam-arbitrated"
                    );
                }
            }
        }
    }

    #[test]
    fn all_seam_crossing_deck_still_routes_identically() {
        // Pathological partition: 2-cell regions under an 8-cell margin
        // mean every window spans several regions — no connection is
        // interior, the whole deck goes through seam negotiation.
        let (n, p) = placed(250, 11);
        let base =
            RouteConfig { window_margin: 8, region_size: 64, ..Default::default() };
        let reference = route(&n, &p, &base);
        let cfg = RouteConfig { region_size: 2, threads: 4, ..base.clone() };
        let out = route(&n, &p, &cfg);
        assert_eq!(out.local_commits, 0, "nothing can be region-interior");
        assert!(out.seam_conflicts as usize >= out.connections);
        assert!(out.negotiation_waves > 1);
        assert_eq!(out.wirelength, reference.wirelength);
        assert_eq!(out.vias, reference.vias);
        assert_eq!(out.overflow, reference.overflow);
        assert_eq!(out.cells_expanded, reference.cells_expanded);
        assert_eq!(out.ripup_overflow, reference.ripup_overflow);
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
            for threads in [2, 4] {
                let cfg = RouteConfig { threads, ..windowed.clone() };
                let par = route(&n, &p, &cfg);
                assert_eq!(par.wirelength, serial.wirelength, "{alg:?} threads={threads}");
                assert_eq!(par.vias, serial.vias);
                assert_eq!(par.overflow, serial.overflow);
                assert_eq!(par.cells_expanded, serial.cells_expanded);
                assert_eq!(par.peak_window_cells, serial.peak_window_cells);
                assert_eq!(par.ripup_overflow, serial.ripup_overflow);
            }
        }
    }
}
