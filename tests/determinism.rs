//! Serial-vs-parallel determinism of the full flow: its QoR must be
//! bit-identical for any thread count (the contract in DESIGN.md's
//! "Parallel execution" section). The placer's stripe refinement is the one
//! kernel that still reads `threads`; OPC and fault simulation run serially
//! and are held by their own `*_is_pinned` unit tests.

use eda::core::{run_flow, FlowConfig};
use eda::netlist::generate;
use eda::tech::Node;

/// The full flow at 2 and 8 worker threads reproduces the 1-thread QoR
/// exactly, down to the last f64 bit.
#[test]
fn full_flow_qor_is_identical_at_any_thread_count() {
    let d = generate::random_logic(generate::RandomLogicConfig {
        gates: 200,
        seed: 11,
        ..Default::default()
    })
    .unwrap();
    let mut cfg = FlowConfig::advanced_2016(Node::N28);
    cfg.threads = 1;
    let base = run_flow(&d, &cfg).unwrap();
    for threads in [2, 8] {
        cfg.threads = threads;
        let r = run_flow(&d, &cfg).unwrap();
        assert_eq!(base.hpwl_um.to_bits(), r.hpwl_um.to_bits(), "threads={threads}");
        assert_eq!(base.routed_wirelength, r.routed_wirelength, "threads={threads}");
        assert_eq!(base.vias, r.vias, "threads={threads}");
        assert_eq!(base.overflow, r.overflow, "threads={threads}");
        assert_eq!(base.wns_ps.to_bits(), r.wns_ps.to_bits(), "threads={threads}");
        assert_eq!(base.test_coverage.to_bits(), r.test_coverage.to_bits(), "threads={threads}");
        assert_eq!(base.dynamic_mw.to_bits(), r.dynamic_mw.to_bits(), "threads={threads}");
        assert_eq!(base.masks, r.masks, "threads={threads}");
        assert_eq!(base.hold_violations, r.hold_violations, "threads={threads}");
    }
}
