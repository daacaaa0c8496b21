//! Bin-based routing-congestion estimation (RUDY-style).
//!
//! Used by the scan-chain reordering experiment (claim C10) and by the flow
//! report to quantify how placement decisions translate into routing demand.

use crate::pins::NetPins;
use crate::placement::Placement;
use eda_netlist::Netlist;

/// A routing-demand map over a uniform bin grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionMap {
    /// Bins per side.
    pub bins: usize,
    /// Demand per bin (µm of wire per µm² of bin, scaled).
    demand: Vec<f64>,
    /// Routing capacity per bin in the same unit.
    pub capacity: f64,
}

impl CongestionMap {
    /// Builds the map from a placement.
    ///
    /// Each net spreads `hpwl` of demand uniformly over the bins its bounding
    /// box overlaps. `capacity` is the per-bin supply in the same unit.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn build(netlist: &Netlist, placement: &Placement, bins: usize, capacity: f64) -> CongestionMap {
        assert!(bins > 0, "need at least one bin");
        let die = placement.die;
        let bw = die.width_um / bins as f64;
        let bh = die.height_um / bins as f64;
        let mut demand = vec![0.0f64; bins * bins];
        let pins = NetPins::build(netlist);
        for net in 0..pins.num_nets() {
            let Some((lo, hi)) = pins.net_bbox(placement, net) else { continue };
            let hpwl = (hi.x - lo.x) + (hi.y - lo.y);
            if hpwl <= 0.0 {
                continue;
            }
            let bx0 = ((lo.x / bw) as usize).min(bins - 1);
            let bx1 = ((hi.x / bw) as usize).min(bins - 1);
            let by0 = ((lo.y / bh) as usize).min(bins - 1);
            let by1 = ((hi.y / bh) as usize).min(bins - 1);
            let count = ((bx1 - bx0 + 1) * (by1 - by0 + 1)) as f64;
            let share = hpwl / count;
            for by in by0..=by1 {
                for bx in bx0..=bx1 {
                    demand[by * bins + bx] += share;
                }
            }
        }
        CongestionMap { bins, demand, capacity }
    }

    /// Maximum bin demand.
    pub fn max_demand(&self) -> f64 {
        self.demand.iter().copied().fold(0.0, f64::max)
    }

    /// Mean bin demand.
    pub fn avg_demand(&self) -> f64 {
        self.demand.iter().sum::<f64>() / self.demand.len() as f64
    }

    /// Total demand above capacity, summed over bins.
    pub fn total_overflow(&self) -> f64 {
        self.demand.iter().map(|&d| (d - self.capacity).max(0.0)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Die;
    use crate::global::{place_global, GlobalConfig};
    use eda_netlist::generate;

    fn setup() -> (eda_netlist::Netlist, Placement) {
        let n = generate::random_logic(generate::RandomLogicConfig {
            gates: 300,
            seed: 11,
            ..Default::default()
        })
        .unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let p = place_global(&n, die, &GlobalConfig::default());
        (n, p)
    }

    #[test]
    fn demand_is_conserved() {
        let (n, p) = setup();
        let m = CongestionMap::build(&n, &p, 8, 1e9);
        let total: f64 = m.demand.iter().sum();
        assert!((total - p.total_hpwl(&n)).abs() / total < 1e-6, "demand equals HPWL");
    }

    #[test]
    fn tighter_capacity_means_more_overflow() {
        let (n, p) = setup();
        let loose = CongestionMap::build(&n, &p, 8, 1e9);
        let tight = CongestionMap::build(&n, &p, 8, loose.avg_demand() * 0.5);
        let overflowed = |m: &CongestionMap| m.demand.iter().filter(|&&d| d > m.capacity).count();
        assert_eq!(overflowed(&loose), 0);
        assert!(overflowed(&tight) > 0);
        assert!(tight.total_overflow() > 0.0);
    }

    #[test]
    fn max_at_least_avg() {
        let (n, p) = setup();
        let m = CongestionMap::build(&n, &p, 16, 1.0);
        assert!(m.max_demand() >= m.avg_demand());
    }
}
