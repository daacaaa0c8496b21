//! Clock-tree synthesis: recursive-bisection buffered trees.
//!
//! The panel's power story runs through the clock network (clock gating,
//! Domic's "design for power"); a believable clock network is therefore part
//! of the substrate. [`synthesize_clock_tree`] builds a balanced buffered
//! tree over the flop sinks by alternating median bisection (an H-tree
//! generalization for non-uniform sink distributions); [`star_distribution`]
//! is the naive comparison — one driver wired to every sink — with the skew
//! and capacitance penalty that implies.

use crate::floorplan::Point;
use crate::placement::Placement;
use eda_netlist::{InstId, Netlist};

/// Buffer intrinsic delay, ps.
const BUFFER_DELAY_PS: f64 = 12.0;
/// Wire delay per µm, ps (lumped RC approximation).
const WIRE_DELAY_PS_PER_UM: f64 = 0.05;
/// Wire capacitance per µm, fF.
const WIRE_CAP_FF_PER_UM: f64 = 0.2;

/// CTS parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtsConfig {
    /// Maximum sinks (or subtrees) a buffer may drive.
    pub max_fanout: usize,
}

impl Default for CtsConfig {
    fn default() -> Self {
        CtsConfig { max_fanout: 8 }
    }
}

/// One buffer of the synthesized tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockBuffer {
    /// Buffer location.
    pub location: Point,
    /// Tree level (0 = root).
    pub level: u32,
}

/// A synthesized clock network.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockTree {
    /// Inserted buffers.
    pub buffers: Vec<ClockBuffer>,
    /// Total clock wirelength, µm.
    pub wirelength_um: f64,
    /// Insertion delay per sink, ps (same order as the sink list given).
    pub sink_delays_ps: Vec<f64>,
    /// Tree depth in buffer levels.
    pub depth: u32,
}

impl ClockTree {
    /// Clock skew: max − min sink insertion delay, ps.
    pub fn skew_ps(&self) -> f64 {
        let max = self.sink_delays_ps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = self.sink_delays_ps.iter().copied().fold(f64::INFINITY, f64::min);
        if self.sink_delays_ps.is_empty() {
            0.0
        } else {
            max - min
        }
    }
}

/// Builds a buffered clock tree over the netlist's flops.
///
/// Returns the tree and the sink (flop) order used for `sink_delays_ps`.
pub fn synthesize_clock_tree(
    netlist: &Netlist,
    placement: &Placement,
    cfg: &CtsConfig,
) -> (ClockTree, Vec<InstId>) {
    let sinks = netlist.flops();
    let pts: Vec<Point> = sinks.iter().map(|&f| placement.position(f)).collect();
    if sinks.is_empty() {
        return (
            ClockTree { buffers: Vec::new(), wirelength_um: 0.0, sink_delays_ps: Vec::new(), depth: 0 },
            sinks,
        );
    }
    let mut buffers = Vec::new();
    let mut wirelength = 0.0;
    let mut delays = vec![0.0f64; sinks.len()];
    let indices: Vec<usize> = (0..sinks.len()).collect();
    let depth = build(
        &pts,
        indices,
        0,
        true,
        cfg,
        &mut buffers,
        &mut wirelength,
        &mut delays,
        0.0,
    );
    (
        ClockTree { buffers, wirelength_um: wirelength, sink_delays_ps: delays, depth },
        sinks,
    )
}

/// Recursively partitions `group`, placing a buffer at the centroid;
/// returns the subtree depth.
#[allow(clippy::too_many_arguments)]
fn build(
    pts: &[Point],
    group: Vec<usize>,
    level: u32,
    split_x: bool,
    cfg: &CtsConfig,
    buffers: &mut Vec<ClockBuffer>,
    wirelength: &mut f64,
    delays: &mut [f64],
    arrival_ps: f64,
) -> u32 {
    let centroid = {
        let n = group.len() as f64;
        Point::new(
            group.iter().map(|&i| pts[i].x).sum::<f64>() / n,
            group.iter().map(|&i| pts[i].y).sum::<f64>() / n,
        )
    };
    buffers.push(ClockBuffer { location: centroid, level });
    let here = arrival_ps + BUFFER_DELAY_PS;

    if group.len() <= cfg.max_fanout {
        for &i in &group {
            let d = centroid.manhattan(&pts[i]);
            *wirelength += d;
            delays[i] = here + d * WIRE_DELAY_PS_PER_UM;
        }
        return level + 1;
    }
    // Median split along the alternating axis.
    let mut sorted = group;
    sorted.sort_by(|&a, &b| {
        let ka = if split_x { pts[a].x } else { pts[a].y };
        let kb = if split_x { pts[b].x } else { pts[b].y };
        ka.partial_cmp(&kb).expect("coordinates are finite")
    });
    let mid = sorted.len() / 2;
    let right = sorted.split_off(mid);
    let mut depth = level + 1;
    for half in [sorted, right] {
        if half.is_empty() {
            continue;
        }
        let n = half.len() as f64;
        let child = Point::new(
            half.iter().map(|&i| pts[i].x).sum::<f64>() / n,
            half.iter().map(|&i| pts[i].y).sum::<f64>() / n,
        );
        let d = centroid.manhattan(&child);
        *wirelength += d;
        let child_arrival = here + d * WIRE_DELAY_PS_PER_UM;
        depth = depth.max(build(
            pts,
            half,
            level + 1,
            !split_x,
            cfg,
            buffers,
            wirelength,
            delays,
            child_arrival,
        ));
    }
    depth
}

/// The naive comparison: one root driver wired directly to every sink.
pub fn star_distribution(netlist: &Netlist, placement: &Placement) -> ClockTree {
    let sinks = netlist.flops();
    if sinks.is_empty() {
        return ClockTree {
            buffers: Vec::new(),
            wirelength_um: 0.0,
            sink_delays_ps: Vec::new(),
            depth: 0,
        };
    }
    let die = placement.die;
    let root = Point::new(die.width_um / 2.0, die.height_um / 2.0);
    let mut wirelength = 0.0;
    let mut delays = Vec::with_capacity(sinks.len());
    // A single driver sees the whole load: its delay grows with total cap.
    let total_wire: f64 = sinks
        .iter()
        .map(|&f| root.manhattan(&placement.position(f)))
        .sum();
    let driver_delay = BUFFER_DELAY_PS + total_wire * WIRE_CAP_FF_PER_UM * 0.05; // cap-load slowdown
    for &f in &sinks {
        let d = root.manhattan(&placement.position(f));
        wirelength += d;
        delays.push(driver_delay + d * WIRE_DELAY_PS_PER_UM);
    }
    ClockTree {
        buffers: vec![ClockBuffer { location: root, level: 0 }],
        wirelength_um: wirelength,
        sink_delays_ps: delays,
        depth: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Die;
    use crate::global::{place_global, GlobalConfig};
    use eda_netlist::generate;

    fn placed() -> (eda_netlist::Netlist, Placement) {
        let n = generate::switch_fabric(6, 4).unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let p = place_global(&n, die, &GlobalConfig::default());
        (n, p)
    }

    #[test]
    fn tree_reaches_every_sink() {
        let (n, p) = placed();
        let (tree, sinks) = synthesize_clock_tree(&n, &p, &CtsConfig::default());
        assert_eq!(sinks.len(), n.flops().len());
        assert_eq!(tree.sink_delays_ps.len(), sinks.len());
        assert!(tree.sink_delays_ps.iter().all(|&d| d > 0.0));
        assert!(tree.wirelength_um > 0.0);
        assert!(!tree.buffers.is_empty());
    }

    #[test]
    fn tree_skew_beats_star() {
        let (n, p) = placed();
        let (tree, _) = synthesize_clock_tree(&n, &p, &CtsConfig::default());
        let star = star_distribution(&n, &p);
        assert!(
            tree.skew_ps() < star.skew_ps(),
            "balanced tree skew {:.1} must beat star {:.1}",
            tree.skew_ps(),
            star.skew_ps()
        );
    }

    #[test]
    fn fanout_bound_respected() {
        let (n, p) = placed();
        let cfg = CtsConfig { max_fanout: 4 };
        let (tree, sinks) = synthesize_clock_tree(&n, &p, &cfg);
        // Leaf buffers drive at most max_fanout sinks: with 24 flops and
        // fanout 4 the tree needs at least 6 leaf buffers.
        assert!(tree.buffers.len() >= sinks.len().div_ceil(cfg.max_fanout));
        assert!(tree.depth >= 2);
    }

    #[test]
    fn deeper_trees_for_smaller_fanout() {
        let (n, p) = placed();
        let wide = synthesize_clock_tree(&n, &p, &CtsConfig { max_fanout: 16 }).0;
        let narrow = synthesize_clock_tree(&n, &p, &CtsConfig { max_fanout: 2 }).0;
        assert!(narrow.depth > wide.depth);
        assert!(narrow.buffers.len() > wide.buffers.len());
    }

    #[test]
    fn empty_design_yields_empty_tree() {
        let n = generate::parity_tree(8).unwrap(); // no flops
        let die = Die::for_netlist(&n, 0.7);
        let p = place_global(&n, die, &GlobalConfig::default());
        let (tree, sinks) = synthesize_clock_tree(&n, &p, &CtsConfig::default());
        assert!(sinks.is_empty());
        assert_eq!(tree.skew_ps(), 0.0);
        assert_eq!(tree.wirelength_um, 0.0);
    }
}
