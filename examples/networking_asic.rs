//! Rossi's world: an ASIC for networking with 5× the switching activity of a
//! standard processor — hot spots, automatic decap insertion, and
//! placement-aware scan-chain reordering.
//!
//! ```text
//! cargo run --example networking_asic
//! ```

use eda::dft::{insert_scan, reorder_chains, scan_wirelength};
use eda::netlist::generate;
use eda::place::{place_global, CongestionMap, Die, GlobalConfig};
use eda::power::{analyze, plan_decaps, Activity, ActivityConfig, PowerConfig, PowerGrid};
use eda::tech::Node;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The switch fabric: every output port muxes every input port.
    let fabric = generate::switch_fabric(8, 8)?;
    println!(
        "switch fabric: {} instances, {} flops",
        fabric.num_instances(),
        fabric.flops().len()
    );

    // --- activity: networking traffic at 5x the standard workload ---
    let base = Activity::estimate(&fabric, &ActivityConfig::default())?;
    let traffic = base.scaled(5.0);
    let pcfg = PowerConfig { node: Node::N28, freq_mhz: 1000.0 };
    let p_std = analyze(&fabric, &base, &pcfg);
    let p_net = analyze(&fabric, &traffic, &pcfg);
    println!(
        "power:    standard workload {:.2} mW -> networking traffic {:.2} mW ({:.1}x)",
        p_std.total_mw(),
        p_net.total_mw(),
        p_net.total_mw() / p_std.total_mw()
    );

    // --- hot spots and automatic decap insertion ---
    let die = Die::for_netlist(&fabric, 0.7);
    let placement = place_global(&fabric, die, &GlobalConfig::default());
    let mut grid = PowerGrid::build(&fabric, &placement, &traffic, &pcfg, 8);
    let limit = grid.peak_droop(Node::N28) * 0.4;
    let decaps = plan_decaps(fabric.library(), &mut grid, Node::N28, limit)?;
    let mut fixed = fabric.clone();
    decaps.apply(&mut fixed);
    println!(
        "pgrid:    {} hotspots -> {} after inserting {} decaps automatically ({} instances)",
        decaps.hotspots_before,
        decaps.hotspots_after,
        decaps.decaps(),
        fixed.num_instances()
    );

    // --- scan chains: front-end order vs placement-aware reorder ---
    let scanned = insert_scan(&fabric, 4)?;
    let scan_die = Die::for_netlist(&scanned.netlist, 0.7);
    let scan_place = place_global(&scanned.netlist, scan_die, &GlobalConfig::default());
    let before = scan_wirelength(&scanned.chains, &scan_place);
    let reordered = reorder_chains(&scanned.chains, &scan_place);
    let after = scan_wirelength(&reordered, &scan_place);
    println!(
        "scan:     stitch wirelength {:.0} um (front-end order) -> {:.0} um (placement-aware, -{:.0}%)",
        before,
        after,
        100.0 * (1.0 - after / before)
    );

    // --- congestion impact of the scan stitching ---
    let cong = CongestionMap::build(&scanned.netlist, &scan_place, 8, 1e9);
    println!(
        "route:    peak routing demand {:.0} um/bin, average {:.0} um/bin",
        cong.max_demand(),
        cong.avg_demand()
    );
    Ok(())
}
