//! The global router: net decomposition, algorithm selection, and
//! PathFinder-style negotiated rip-up and re-route.

use crate::grid::{DemandGrid, GCell, RoutingGrid};
use crate::linesearch::probe_window;
use crate::maze::{count_bends, Path, SearchWindow};
use crate::region::{OverlayGrid, RegionMap, RegionScheduler, RegionTask};
use crate::rules::RuleDeck;
use crate::scratch::{ScratchPool, SearchScratch};
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
    /// Worker threads for net decomposition and the wave dispatches of the
    /// initial pass and every rip-up round (`0` = all cores). The schedule
    /// is a pure function of the input and the two shape knobs below —
    /// never of this value — so outcomes are bit-identical for any thread
    /// count. Threads only buy wall clock when a positive
    /// [`window_margin`](Self::window_margin) lets connections in different
    /// regions route side by side; with full-grid windows every pair of
    /// connections conflicts and the route is serial by construction.
    pub threads: usize,
    /// Search bound: `0` (the default) lets every maze search see the full
    /// grid and line-search probes the connection's own extent. When
    /// positive, every search is confined to the connection's bounding box
    /// expanded by this many g-cells, so per-search scratch is proportional
    /// to the connection's extent instead of the grid area — the tiled mode
    /// the scale tier routes in. The window is a pure function of the
    /// connection. It also sets the rip-up victim rule (see
    /// [`route_stats`]): at-capacity edges when `0`, strictly overflowed
    /// edges otherwise.
    pub window_margin: u32,
    /// Partition shape: side length (g-cells) of the regions the wave
    /// scheduler of [`crate::region`] tiles the grid into. `0` (the
    /// default) — and any route with `window_margin == 0`, where every
    /// window is the whole grid — means one region covering the grid: the
    /// schedule degenerates to one task per pass routing the canonical
    /// order serially. When positive, region-interior connections search
    /// *and commit* against private overlays with no cross-worker
    /// synchronization and seam-crossing connections are arbitrated in
    /// canonical order. The partition never depends on `threads`, and the
    /// result is bit-identical to the one-region schedule for any region
    /// size and any thread count: this knob shapes parallelism, never QoR.
    pub region_size: u32,
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
    /// initial pass, then one entry per rip-up round). Thread-invariant
    /// like every other field: commits replay in canonical order.
    pub ripup_overflow: Vec<u64>,
    /// Largest per-search scratch window materialized (g-cells). Equals
    /// [`RouteOutcome::dense_grid_cells`] when
    /// [`RouteConfig::window_margin`] is `0`; under tiled routing it is the
    /// bounded-memory bar the bench compares against the dense grid.
    pub peak_window_cells: u64,
    /// Scratch a full-grid search would have allocated (`width × height`) —
    /// the dense baseline bar.
    pub dense_grid_cells: u64,
    /// Regions in the partition (`1` = the one-region serial case). Like
    /// the schedule diagnostics below, a pure function of the input and
    /// the config — identical at any thread count.
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
    let pins = NetPins::build(netlist);
    let nets: Vec<usize> = (0..pins.num_nets()).collect();
    let (per_net, stats) = eda_par::par_map_stats(threads, &nets, |_, &net| {
        prim_pairs(&net_gcells(&pins, placement, net, width, height))
    });
    (per_net.into_iter().flatten().collect(), stats)
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

fn commit(grid: &mut RoutingGrid, path: &Path, delta: i32) {
    for w in path.windows(2) {
        grid.add_usage(w[0], w[1], delta);
    }
}

/// Pure per-connection search against an immutable demand view — the only
/// route computation, shared by interior runs (where the view is a private
/// [`OverlayGrid`]), seam singletons and the rip-up re-routes. Returns
/// `(path, linesearch_fell_back, expanded, scratch)`. The result depends
/// only on the demand values and the window, so any wave execution that
/// presents the canonical demand state gets the canonical path.
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
    }
}

/// Routes a placed netlist.
///
/// The baseline [`RouteAlgorithm::LeeBfs`] routes each connection once with
/// no congestion awareness; the advanced algorithms run negotiated rip-up
/// and re-route until clean or the iteration budget is spent.
pub fn route(netlist: &Netlist, placement: &Placement, cfg: &RouteConfig) -> RouteOutcome {
    route_stats(netlist, placement, cfg).0
}

/// [`route`] with the independent pass auditor of [`crate::audit`] forced on
/// in every build profile (debug builds run it on every route anyway): after
/// the initial pass and after every rip-up round, per-edge demand rebuilt
/// from the committed paths must equal the grid's, and every path must be a
/// unit-step walk from its source to its target inside its search window.
///
/// # Panics
///
/// Panics with the auditor's message on the first pass that fails.
pub fn route_audited(netlist: &Netlist, placement: &Placement, cfg: &RouteConfig) -> RouteOutcome {
    route_with(netlist, placement, cfg, None, true).0
}

/// [`route`] returning the accumulated parallel-execution record of the
/// decompose and wave dispatches (for scaling reports).
///
/// There is one schedule. Connections are ranked once into the **canonical
/// order** — descending `manhattan + 2·(fanout − 2)`: long, high-fanout
/// connections need the straightest resources and get them from an empty
/// grid — and the initial pass routes that order through the wave scheduler
/// of [`crate::region`], which is bit-identical to routing it one
/// connection at a time for any [`RouteConfig::region_size`] and any
/// `threads`. Each negotiated round then bumps history on overflowed edges,
/// collects its victims in canonical order and re-routes them through the
/// same waves; a victim's old path stays committed until its own commit
/// slot, and only its own demand is hidden from its re-route.
///
/// The victim rule is the one place the dense and the windowed tier differ:
/// with `window_margin == 0` every path on an *at-capacity* edge is a
/// victim, otherwise only paths on *strictly overflowed* edges.
pub fn route_stats(
    netlist: &Netlist,
    placement: &Placement,
    cfg: &RouteConfig,
) -> (RouteOutcome, eda_par::ParStats) {
    let (outcome, stats, _) = route_stats_memo(netlist, placement, cfg, None);
    (outcome, stats)
}

/// Memo kind for whole-outcome route replay entries.
pub const ROUTE_OUTCOME_KIND: &str = "route.outcome";

/// [`route_stats`] with an optional sub-stage memo holding one entry per
/// route ([`ROUTE_OUTCOME_KIND`]): the final [`RouteOutcome`], keyed on the
/// decomposed connection list plus every route-relevant config field (never
/// `threads`), replays without touching the grid at all.
///
/// Nothing finer is memoized. An entry must replace work that costs more
/// than a store round trip; per-item entries do not — a net's Prim MST is
/// cheaper to recompute than to look up, and a connection's path depends on
/// the demand committed by every previously routed connection, so it could
/// not replay out of context anyway.
///
/// The third return value reports whether the outcome was replayed
/// (`seconds` is near-zero and the [`ParStats`] empty in that case — callers
/// skip their kernel telemetry so replayed and recomputed runs stay
/// comparable).
///
/// [`ParStats`]: eda_par::ParStats
pub fn route_stats_memo(
    netlist: &Netlist,
    placement: &Placement,
    cfg: &RouteConfig,
    memo: Option<&dyn SubstageMemo>,
) -> (RouteOutcome, eda_par::ParStats, bool) {
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
) -> (RouteOutcome, eda_par::ParStats, bool) {
    let start = Instant::now();
    let w = cfg.grid_cells.max(2);
    let h = cfg.grid_cells.max(2);
    let grid = RoutingGrid::new(w, h, &cfg.deck);
    let (decomposed, stats) = decompose(netlist, placement, w, h, cfg.threads);
    // Search scratch lives exactly as long as this route call: one per
    // concurrently running wave task, reused across waves and rounds.
    let pool = ScratchPool::default();
    if let Some(m) = memo {
        let key = route_outcome_key(cfg, &decomposed);
        if let Some(out) =
            m.load(ROUTE_OUTCOME_KIND, key).and_then(|p| parse_route_outcome(&p, start))
        {
            return (out, eda_par::ParStats::empty(), true);
        }
        let (outcome, stats) = route_decomposed(grid, decomposed, stats, cfg, start, audit, &pool);
        m.store(ROUTE_OUTCOME_KIND, key, &route_outcome_text(&outcome));
        return (outcome, stats, false);
    }
    let (outcome, stats) = route_decomposed(grid, decomposed, stats, cfg, start, audit, &pool);
    (outcome, stats, false)
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
/// route-relevant config (algorithm, deck, grid, budgets, window/region
/// shape — everything but `threads`, which outcomes are invariant to) and
/// the decomposed connection list.
fn route_outcome_key(cfg: &RouteConfig, pairs: &[TwoPin]) -> u64 {
    let mut text = format!(
        "route|rev{SCHEDULE_REV}|{:?}|{}|{}|{}|{:016x}|{:016x}|{}|{}|{}|{}\n",
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

/// Running totals across all wave passes of one route.
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
/// count. A one-region map makes every pass a single interior task, which
/// `eda-par` runs inline on the calling thread.
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
    let full = SearchWindow::full(grid);
    let windows: Vec<SearchWindow> = items
        .iter()
        .map(|&i| {
            let tp = &pairs[i as usize];
            if cfg.window_margin == 0 {
                full
            } else {
                SearchWindow::around(tp.src, tp.dst, cfg.window_margin, grid)
            }
        })
        .collect();
    let mut sched = RegionScheduler::new(map, &windows);
    while sched.remaining() > 0 {
        let wave = sched.next_wave();
        if wave.is_empty() {
            break;
        }
        tally.waves += 1;
        let (results, s) = {
            let grid: &RoutingGrid = grid;
            let sched = &sched;
            let windows = &windows;
            // Immutable view for the workers; old paths are only swapped
            // out in the canonical commit loop after the dispatch returns.
            let paths: &[Option<Path>] = paths;
            let run_task = |task: &RegionTask, scratch: &mut SearchScratch| match *task {
                RegionTask::Interior { region, start, len } => {
                    // The region overlay runs on the task scratch's delta
                    // buffers and hands them back all-zero by undoing its
                    // own commits and uncommits.
                    let buffers = std::mem::take(&mut scratch.overlay);
                    let mut overlay = OverlayGrid::with_buffers(grid, map.rect(region), buffers);
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
                    for (item, r) in &out {
                        overlay.uncommit(&r.0);
                        if let Some(old) = &paths[items[*item as usize] as usize] {
                            overlay.commit(old);
                        }
                    }
                    scratch.overlay = overlay.into_buffers();
                    out
                }
                RegionTask::Seam { item } => {
                    let pair = items[item as usize] as usize;
                    let win = windows[item as usize];
                    let r = if let Some(old) = &paths[pair] {
                        // A window-sized overlay on the task scratch's
                        // buffers, unwound by re-committing the old path.
                        let buffers = std::mem::take(&mut scratch.overlay);
                        let rect = (win.x0, win.y0, win.x1, win.y1);
                        let mut overlay = OverlayGrid::with_buffers(grid, rect, buffers);
                        overlay.uncommit(old);
                        let r = route_one_in(&overlay, &pairs[pair], win, cfg, scratch);
                        overlay.commit(old);
                        scratch.overlay = overlay.into_buffers();
                        r
                    } else {
                        route_one_in(grid, &pairs[pair], win, cfg, scratch)
                    };
                    vec![(item, r)]
                }
            };
            // One scratch checkout per task: an interior run amortises it
            // over every connection of the run.
            eda_par::par_tasks_stats(cfg.threads, &wave, |_, task| {
                pool.with(|scratch| run_task(task, scratch))
            })
        };
        stats.absorb(&s);
        for (task, routed) in wave.iter().zip(results) {
            let seam = matches!(task, RegionTask::Seam { .. });
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

/// Routes an already-decomposed connection list: canonical order, the
/// wave-scheduled initial pass, then negotiated rip-up rounds through the
/// same waves — see [`route_stats`] for the schedule and the victim rule.
/// `stats` arrives holding the decompose dispatch; every wave task checks
/// its scratch out of `pool`.
fn route_decomposed(
    mut grid: RoutingGrid,
    pairs: Vec<TwoPin>,
    mut stats: eda_par::ParStats,
    cfg: &RouteConfig,
    start: Instant,
    audit: bool,
    pool: &ScratchPool,
) -> (RouteOutcome, eda_par::ParStats) {
    let (w, h) = (grid.width, grid.height);
    // Full-grid windows overlap every region, so a partition could only
    // turn each connection into a seam singleton: one region instead.
    let one_region = cfg.region_size == 0 || cfg.window_margin == 0;
    let map = RegionMap::new(w, h, if one_region { w.max(h) } else { cfg.region_size });
    let mut order: Vec<u32> = (0..pairs.len() as u32).collect();
    order.sort_by_key(|&i| {
        let p = &pairs[i as usize];
        std::cmp::Reverse(p.src.manhattan(&p.dst) + 2 * p.fanout.saturating_sub(2))
    });

    let mut paths: Vec<Option<Path>> = vec![None; pairs.len()];
    let mut tally = WaveTally::default();
    // Per pass, not per wave: a partitioned 50 k mesh dispatches ~20 k waves.
    let audit_pass = |grid: &RoutingGrid, paths: &[Option<Path>]| {
        if audit {
            if let Err(e) = crate::audit::audit_pass(grid, &pairs, paths, cfg.window_margin) {
                panic!("route audit failed: {e}");
            }
        }
    };
    run_wave_pass(&mut grid, &pairs, &order, map, cfg, &mut paths, pool, &mut stats, &mut tally);
    audit_pass(&grid, &paths);

    // The one tier switch left, and both halves earn their keep (measured
    // when the schedules were merged). Strictly-overflowed victims on the
    // dense tier cost QoR: `fabric:8x16` ends at 8/7/0 overflow instead of
    // 1/2/0 over seeds 1 / 31000033 / 42, `rand:800:5` at 12/10/0 instead of
    // 0/0/0 — on a 32-cell grid, moving the at-capacity neighbours is what
    // opens room. At-capacity victims at scale cost time and move QoR: most
    // edges sit near capacity by design, so the rule churns thousands of
    // paths per residual overflow unit (50 k mesh route 1.58 → 2.01 s).
    let victim_edge = |grid: &RoutingGrid, a: GCell, b: GCell| {
        if cfg.window_margin == 0 {
            grid.is_full(a, b)
        } else {
            grid.is_overflowed(a, b)
        }
    };
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
                    paths[i as usize]
                        .as_ref()
                        .is_some_and(|p| p.windows(2).any(|e| victim_edge(&grid, e[0], e[1])))
                })
                .collect();
            run_wave_pass(
                &mut grid, &pairs, &victims, map, cfg, &mut paths, pool, &mut stats, &mut tally,
            );
            audit_pass(&grid, &paths);
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

    /// Every deterministic field but the partition diagnostics.
    fn same_qor(a: &RouteOutcome, b: &RouteOutcome, tag: &str) {
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

    fn same_outcome(a: &RouteOutcome, b: &RouteOutcome) {
        same_qor(a, b, "");
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
            assert_eq!(memo.hits.get(), 1, "the outcome entry is the only one addressed");
            assert_eq!(memo.map.borrow().len(), 1, "one entry per route, whatever the net count");
        }
    }

    /// The outcome key as the batched-schedule revision computed it: no
    /// schedule revision field.
    fn route_outcome_key_rev1(cfg: &RouteConfig, pairs: &[TwoPin]) -> u64 {
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

    #[test]
    fn outcome_entries_of_the_batched_revision_are_never_addressed() {
        let (n, p) = placed(200, 4);
        let (pairs, _) = decompose(&n, &p, 32, 32, 1);
        for cfg in [
            RouteConfig::default(),
            RouteConfig { algorithm: RouteAlgorithm::AStar, ..Default::default() },
            RouteConfig { window_margin: 8, region_size: 16, ..Default::default() },
        ] {
            assert_ne!(route_outcome_key(&cfg, &pairs), route_outcome_key_rev1(&cfg, &pairs));
            assert_ne!(route_outcome_key(&cfg, &[]), route_outcome_key_rev1(&cfg, &[]));
        }
        // A store the parent filled: the entry sits under the old address and
        // would parse, but the lookup never reaches it.
        let memo = MapMemo::new();
        let cfg = RouteConfig::default();
        let stale = RouteOutcome { wirelength: 1, ..route(&n, &p, &cfg) };
        memo.store(ROUTE_OUTCOME_KIND, route_outcome_key_rev1(&cfg, &pairs), &route_outcome_text(&stale));
        let (out, _, replayed) = route_stats_memo(&n, &p, &cfg, Some(&memo));
        assert!(!replayed);
        assert_ne!(out.wirelength, 1);
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
        let overflow = [2u32, 4, 8].map(|l| {
            let cfg = RouteConfig { algorithm: RouteAlgorithm::AStar, ..Default::default() };
            route(&n, &p, &RouteConfig { deck: RuleDeck::simple(l), ..cfg }).overflow
        });
        assert!(overflow[0] >= overflow[1] && overflow[1] >= overflow[2]);
    }

    #[test]
    fn threaded_routing_matches_serial_exactly() {
        let (n, p) = placed(300, 3);
        for alg in [RouteAlgorithm::LeeBfs, RouteAlgorithm::AStar, RouteAlgorithm::LineSearch] {
            let dense = RouteConfig { algorithm: alg, ..Default::default() };
            for shape in [
                dense.clone(),
                RouteConfig { window_margin: 4, ..dense.clone() },
                RouteConfig { window_margin: 4, region_size: 8, ..dense.clone() },
            ] {
                let serial = route(&n, &p, &shape);
                for threads in [2, 4, 8] {
                    let (par, stats) = route_stats(&n, &p, &RouteConfig { threads, ..shape.clone() });
                    same_outcome(&par, &serial);
                    assert!(stats.chunks > 0);
                }
            }
            // Dense is the one-region case: one interior task per pass, and
            // a partition (which under full-grid windows could only
            // serialise through seams) is ignored.
            let serial = route(&n, &p, &dense);
            assert_eq!((serial.regions, serial.seam_conflicts), (1, 0), "{alg:?}");
            assert_eq!(serial.negotiation_waves, serial.iterations as u64, "{alg:?}");
            same_outcome(&route(&n, &p, &RouteConfig { region_size: 8, ..dense }), &serial);
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
                    let out = route(&n, &p, &RouteConfig { region_size, threads, ..base.clone() });
                    let tag = format!("{alg:?} size={region_size} threads={threads}");
                    same_qor(&out, &reference, &tag);
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

    /// Overlay buffer reuse is invisible: on a rip-up deck over 8-cell
    /// regions, a pool whose scratches two earlier routes (at 1 and 4
    /// threads) already lent to their interior and seam-victim overlays
    /// routes what a fresh pool routes, and every pooled scratch ends with
    /// its buffers back at zero.
    #[test]
    fn pooled_overlay_buffers_unwind_to_zero() {
        let (n, p) = placed(300, 3);
        let cfg = RouteConfig {
            deck: RuleDeck::simple(3),
            grid_cells: 16,
            window_margin: 4,
            region_size: 8,
            ..Default::default()
        };
        let fresh = route(&n, &p, &cfg);
        let first_pass = route(&n, &p, &RouteConfig { ripup_iterations: 0, ..cfg.clone() });
        assert!(fresh.local_commits > first_pass.local_commits, "rip-up must re-route interior victims");
        assert!(fresh.seam_conflicts > first_pass.seam_conflicts, "rip-up must re-route seam victims");
        let pool = ScratchPool::default();
        for threads in [1, 4, 1] {
            let cfg = RouteConfig { threads, ..cfg.clone() };
            let (pairs, stats) = decompose(&n, &p, cfg.grid_cells, cfg.grid_cells, threads);
            let grid = RoutingGrid::new(cfg.grid_cells, cfg.grid_cells, &cfg.deck);
            let (out, _) = route_decomposed(grid, pairs, stats, &cfg, Instant::now(), true, &pool);
            same_outcome(&out, &fresh);
        }
        let scratches = pool.into_idle();
        assert!(scratches.iter().any(|s| s.overlay.heap_bytes() > 0), "no overlay borrowed a buffer");
        assert!(scratches.iter().all(|s| s.overlay.is_zero()), "a task left a nonzero delta");
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
        same_qor(&out, &reference, "all seams");
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
            // The window bounds the search whatever the partition and the
            // thread count: same peak, same everything.
            for (region_size, threads) in [(0, 2), (0, 4), (8, 1), (8, 4)] {
                let cfg = RouteConfig { region_size, threads, ..windowed.clone() };
                let tag = format!("{alg:?} size={region_size} threads={threads}");
                same_qor(&route(&n, &p, &cfg), &serial, &tag);
            }
        }
    }
}
