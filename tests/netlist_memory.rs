//! Heap pin for the netlist layout: bytes per instance of the 10⁴ scale mesh
//! and of its synthesized netlist, counted by this binary's own global
//! allocator.
//!
//! The counts are requested bytes, so they are the same in debug and release
//! builds and on every run. A layout change that stores a name twice, widens
//! a sink pin or carries spare `String` / `Vec` capacity again moves them
//! past the bounds below. This file holds exactly one `#[test]`: a second
//! test running in parallel would allocate into the same counter.

use eda::core::FlowConfig;
use eda::logic::{synthesize, SynthesisOptions, SynthesisOutcome};
use eda::netlist::generate;
use eda::tech::Node;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live heap bytes, as requested from the allocator.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: both calls forward to `System` unchanged; the counter only
// observes the layouts. The trait's default `alloc_zeroed` and `realloc`
// go through these two, so every byte is counted once.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Heap bytes per instance of `scale_mesh(10_000, 1)` (9 911 instances),
/// library included: 243.1 measured, bound 1.05× that. The layout before it
/// — a `HashMap<String, NetId>` name index beside each net's own name,
/// `String` names, `Vec` inputs and `usize` sink pins — held 369.3.
const DESIGN_BYTES_PER_INSTANCE: f64 = 255.0;
/// Heap bytes per instance of that mesh's synthesized netlist (15 605
/// instances): 186.4 measured, bound 1.05× that; the layout above held 333.5.
const MAPPED_BYTES_PER_INSTANCE: f64 = 196.0;

#[test]
fn netlist_heap_per_instance_is_pinned() {
    let cfg = FlowConfig::scale_2016(Node::N28, 10_000);
    let lib = cfg.library.library();
    let opts = SynthesisOptions { rewrite_passes: cfg.aig_rewrite_passes, ..Default::default() };

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
}
