//! Heap pins for the netlist layout and the router's wire store, counted by
//! this binary's own global allocator: bytes per instance of the 10⁴ scale
//! mesh and of its synthesized netlist, then, routing that netlist placed
//! as the scale tier places it, the peak heap blocks and bytes per
//! connection the route adds.
//!
//! The counts are requested bytes and live blocks, so they repeat exactly
//! on every run. The netlist counts are the same in debug and release
//! builds. The route part runs in release only (`scripts/check.sh` runs
//! this binary again with `--release`): the 10⁴ route takes over a minute
//! unoptimized, and debug builds audit every pass, whose demand vectors
//! would count too. A layout change that stores a name twice, widens a
//! sink pin or carries spare `String` / `Vec` capacity again, or a router
//! that keeps one heap block per routed connection again, moves them past
//! the bounds below. This file holds exactly one `#[test]`: a second test
//! running in parallel would allocate into the same counters.

use eda::core::FlowConfig;
use eda::logic::{synthesize, SynthesisOptions, SynthesisOutcome};
use eda::netlist::generate;
use eda::place::{place_multilevel, Die, MultilevelConfig};
use eda::route::{route, RouteConfig, RuleDeck};
use eda::tech::Node;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live heap bytes, as requested from the allocator.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Live heap blocks.
static BLOCKS: AtomicUsize = AtomicUsize::new(0);
/// Highest `LIVE` and `BLOCKS` since the last [`reset_peaks`].
static PEAK_LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK_BLOCKS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: both calls forward to `System` unchanged; the counters only
// observe the layouts. The trait's default `alloc_zeroed` and `realloc`
// go through these two, so every byte and block is counted once.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK_LIVE.fetch_max(live, Ordering::Relaxed);
            let blocks = BLOCKS.fetch_add(1, Ordering::Relaxed) + 1;
            PEAK_BLOCKS.fetch_max(blocks, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        BLOCKS.fetch_sub(1, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

fn blocks() -> usize {
    BLOCKS.load(Ordering::Relaxed)
}

/// Starts the peaks afresh from what is live now.
fn reset_peaks() {
    PEAK_LIVE.store(live(), Ordering::Relaxed);
    PEAK_BLOCKS.store(blocks(), Ordering::Relaxed);
}

/// Heap bytes per instance of `scale_mesh(10_000, 1)` (9 911 instances),
/// library included: 243.1 measured, bound 1.05× that. The layout before it
/// — a `HashMap<String, NetId>` name index beside each net's own name,
/// `String` names, `Vec` inputs and `usize` sink pins — held 369.3.
const DESIGN_BYTES_PER_INSTANCE: f64 = 255.0;
/// Heap bytes per instance of that mesh's synthesized netlist (8 273
/// instances): 288.8 measured, bound 1.05× that, 2.51 MB in all. Flops keep
/// their long names while gates carry short ones, so the mean rose when
/// balance stopped duplicating shared logic: the duplicating balance mapped
/// the mesh to 15 605 instances of 186.4 B (2.91 MB, bound 196.0 or
/// 3.06 MB). The layout above held 333.5 B each of those 15 605.
const MAPPED_BYTES_PER_INSTANCE: f64 = 303.0;
/// Heap blocks routing that netlist adds at its peak (16 524 connections):
/// 25 measured, in the wire store's pages. One `Option<Path>` per
/// connection held 31 990 of the duplicating balance's 31 972 connections.
const ROUTE_PEAK_BLOCKS: usize = 256;
/// Heap bytes per connection routing adds at its peak: 185.8 measured,
/// bound 1.05× that, 3.22 MB in all. The grid's share is sized for the
/// input design, so it spreads over fewer connections now: the duplicating
/// balance's 31 972 connections peaked at 131.5 B each (4.20 MB, bound
/// 138.0 or 4.41 MB), and one `Option<Path>` per connection at 141.6.
const ROUTE_PEAK_BYTES_PER_CONNECTION: f64 = 195.0;

#[test]
fn netlist_heap_per_instance_is_pinned() {
    let cfg = FlowConfig::scale_2016(Node::N28, 10_000);
    let lib = cfg.library.library();
    let opts = SynthesisOptions { rewrite_passes: cfg.aig_rewrite_passes };

    let at = live();
    let design = generate::scale_mesh(10_000, 1).expect("mini mesh builds");
    let design_bytes = (live() - at) as f64 / design.num_instances() as f64;

    let at = live();
    let SynthesisOutcome { netlist: mapped, .. } =
        synthesize(&design, lib, cfg.synthesis, &opts).expect("mini mesh synthesizes");
    let mapped_bytes = (live() - at) as f64 / mapped.num_instances() as f64;

    println!(
        "design {} instances, {design_bytes:.1} B each; mapped {} instances, {mapped_bytes:.1} B each",
        design.num_instances(),
        mapped.num_instances()
    );
    assert!(
        design_bytes <= DESIGN_BYTES_PER_INSTANCE,
        "input design holds {design_bytes:.1} heap bytes per instance (bound {DESIGN_BYTES_PER_INSTANCE})"
    );
    assert!(
        mapped_bytes <= MAPPED_BYTES_PER_INSTANCE,
        "mapped netlist holds {mapped_bytes:.1} heap bytes per instance (bound {MAPPED_BYTES_PER_INSTANCE})"
    );
    if cfg!(debug_assertions) {
        println!("route pin skipped: it runs in release");
        return;
    }

    let die = Die::for_netlist(&mapped, cfg.utilization);
    let placed = place_multilevel(
        &mapped,
        die,
        &MultilevelConfig {
            // `4_place`'s multilevel cluster size.
            cluster_size: 64,
            refine_moves_per_cell: cfg.anneal_moves_per_cell,
            seed: cfg.seed,
        },
    );
    let rcfg = RouteConfig {
        algorithm: cfg.router,
        deck: RuleDeck::simple(cfg.node.spec().typical_metal_layers),
        grid_cells: cfg.route_grid_cells,
        ripup_iterations: cfg.ripup_iterations,
        window_margin: cfg.route_window_margin,
    };
    let (at, blocks_at) = (live(), blocks());
    reset_peaks();
    let routed = route(&mapped, &placed.placement, &rcfg);
    let route_blocks = PEAK_BLOCKS.load(Ordering::Relaxed) - blocks_at;
    let route_bytes = (PEAK_LIVE.load(Ordering::Relaxed) - at) as f64 / routed.connections as f64;

    println!(
        "route {} connections, peak +{route_blocks} blocks, {route_bytes:.1} B each",
        routed.connections
    );
    assert!(
        route_blocks <= ROUTE_PEAK_BLOCKS,
        "route holds {route_blocks} more heap blocks at its peak (bound {ROUTE_PEAK_BLOCKS})"
    );
    assert!(
        route_bytes <= ROUTE_PEAK_BYTES_PER_CONNECTION,
        "route peaks at {route_bytes:.1} heap bytes per connection (bound {ROUTE_PEAK_BYTES_PER_CONNECTION})"
    );
}
