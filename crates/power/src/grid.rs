//! Power-density mapping, hot-spot detection, and automatic decap insertion.
//!
//! Rossi (claim C12): networking ASICs run at "switching activities in
//! excess of 5×" ordinary processors, and "the identification of the most
//! critical situations and the on-the-fly introduction of decoupling cells as
//! well as the management of power crowding should be one of the key
//! parameters the tool itself should take care of". [`PowerGrid`] finds the
//! hot spots; [`plan_decaps`] fixes them automatically.

use crate::activity::Activity;
use crate::analysis::PowerConfig;
use eda_netlist::{CellFunction, CellId, Library, Netlist, NetlistError};
use eda_place::Placement;
use eda_tech::Node;

/// A power-density map over placement bins.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerGrid {
    /// Bins per side.
    pub bins: usize,
    /// Power per bin in mW.
    power_mw: Vec<f64>,
    /// Decap capacitance per bin, in fF.
    decap_ff: Vec<f64>,
}

impl PowerGrid {
    /// Builds the map: each instance's dynamic + leakage power lands in its
    /// placement bin.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn build(
        netlist: &Netlist,
        placement: &Placement,
        activity: &Activity,
        cfg: &PowerConfig,
        bins: usize,
    ) -> PowerGrid {
        assert!(bins > 0, "need at least one bin");
        let lib = netlist.library();
        let die = placement.die;
        let spec = cfg.node.spec();
        let ref_spec = crate::analysis::REFERENCE_NODE.spec();
        let cap_scale = spec.gate_cap_ff / ref_spec.gate_cap_ff;
        let leak_scale = spec.leakage_nw_per_gate / ref_spec.leakage_nw_per_gate;
        let f_hz = cfg.freq_mhz * 1e6;
        let mut power = vec![0.0f64; bins * bins];
        for (id, inst) in netlist.instances() {
            let def = lib.cell(inst.cell());
            // Instance dynamic power: its output net switching the load it
            // drives, plus its own internal power approximated by input cap.
            let out = inst.output();
            let c_ff = (def.input_cap_ff * (netlist.net(out).fanout().max(1)) as f64) * cap_scale;
            let p_dyn =
                0.5 * c_ff * 1e-15 * spec.vdd_v * spec.vdd_v * activity.density(out) * f_hz;
            let p_leak = def.leakage_nw * leak_scale * 1e-9;
            let pos = placement.position(id);
            let bx = ((pos.x / die.width_um * bins as f64) as usize).min(bins - 1);
            let by = ((pos.y / die.height_um * bins as f64) as usize).min(bins - 1);
            power[by * bins + bx] += (p_dyn + p_leak) * 1e3;
        }
        PowerGrid { bins, power_mw: power, decap_ff: vec![0.0; bins * bins] }
    }

    /// Power in bin `(x, y)`, mW.
    pub fn power_at(&self, x: usize, y: usize) -> f64 {
        self.power_mw[y * self.bins + x]
    }

    /// Supply droop estimate per bin: local switching current against the
    /// local decoupling. `droop ∝ P / (C_intrinsic + C_decap)`.
    pub fn droop_mv(&self, x: usize, y: usize, node: Node) -> f64 {
        let intrinsic_ff = 50.0; // per-bin intrinsic decoupling
        let p = self.power_at(x, y);
        let c = intrinsic_ff + self.decap_ff[y * self.bins + x];
        let vdd = node.spec().vdd_v;
        1e3 * p / (c * vdd).max(1e-9)
    }

    /// Worst droop over the whole map, mV.
    pub fn peak_droop(&self, node: Node) -> f64 {
        let mut worst = 0.0f64;
        for y in 0..self.bins {
            for x in 0..self.bins {
                worst = worst.max(self.droop_mv(x, y, node));
            }
        }
        worst
    }

    /// Bins whose droop exceeds `limit_mv`.
    pub fn hotspots(&self, node: Node, limit_mv: f64) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for y in 0..self.bins {
            for x in 0..self.bins {
                if self.droop_mv(x, y, node) > limit_mv {
                    out.push((x, y));
                }
            }
        }
        out
    }

    /// Adds decap capacitance to a bin.
    pub fn add_decap(&mut self, x: usize, y: usize, cap_ff: f64) {
        self.decap_ff[y * self.bins + x] += cap_ff;
    }
}

/// Decap cells to insert, planned against a power map: the decap cell and,
/// per hotspot bin in scan order, how many cells fill it.
/// [`DecapPlan::apply`] appends them to the netlist in place.
#[derive(Debug, Clone)]
pub struct DecapPlan {
    cell: CellId,
    /// `(x, y, count)` per bin that receives decaps.
    bins: Vec<(usize, usize, usize)>,
    /// Hotspot count before insertion.
    pub hotspots_before: usize,
    /// Hotspot count after insertion.
    pub hotspots_after: usize,
}

/// Decap cells a bin may receive.
const DECAP_BUDGET_PER_BIN: usize = 200;

/// Fills every hotspot bin of `grid` with decap capacitance until its droop
/// meets `limit_mv` (or the per-bin budget runs out), and plans the decap
/// cells that carry it. The grid is updated; the netlist is not read.
///
/// # Errors
///
/// Fails, before the grid is touched, if the library has no decap cell.
pub fn plan_decaps(
    lib: &Library,
    grid: &mut PowerGrid,
    node: Node,
    limit_mv: f64,
) -> Result<DecapPlan, NetlistError> {
    let cell = lib.find_function(CellFunction::Decap).ok_or_else(|| NetlistError::UnknownName("Decap".into()))?;
    let decap_ff_per_cell = 100.0;
    let hotspots = grid.hotspots(node, limit_mv);
    let hotspots_before = hotspots.len();
    let mut bins = Vec::new();
    for (x, y) in hotspots {
        let mut count = 0;
        while grid.droop_mv(x, y, node) > limit_mv && count < DECAP_BUDGET_PER_BIN {
            grid.add_decap(x, y, decap_ff_per_cell);
            count += 1;
        }
        if count > 0 {
            bins.push((x, y, count));
        }
    }
    let hotspots_after = grid.hotspots(node, limit_mv).len();
    Ok(DecapPlan { cell, bins, hotspots_before, hotspots_after })
}

impl DecapPlan {
    /// Decap cells the plan inserts.
    pub fn decaps(&self) -> usize {
        self.bins.iter().map(|&(_, _, count)| count).sum()
    }

    /// Appends the planned decaps to `netlist` as physical-only instances,
    /// bin by bin, named `decap_<x>_<y>_<budget left>`.
    pub fn apply(&self, netlist: &mut Netlist) {
        for &(x, y, count) in &self.bins {
            for k in 0..count {
                let budget = DECAP_BUDGET_PER_BIN - k;
                netlist
                    .add_gate(format!("decap_{x}_{y}_{budget}"), self.cell, &[])
                    .expect("a decap cell has no pins");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::ActivityConfig;
    use eda_netlist::generate;
    use eda_place::{place_global, Die, GlobalConfig};

    fn setup() -> (Netlist, Placement, Activity) {
        let n = generate::switch_fabric(4, 4).unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let p = place_global(&n, die, &GlobalConfig::default());
        let a = Activity::estimate(&n, &ActivityConfig::default()).unwrap();
        (n, p, a)
    }

    #[test]
    fn grid_conserves_nonzero_power() {
        let (n, p, a) = setup();
        let g = PowerGrid::build(&n, &p, &a, &PowerConfig::default(), 8);
        let total: f64 = (0..8).flat_map(|y| (0..8).map(move |x| (x, y)))
            .map(|(x, y)| g.power_at(x, y))
            .sum();
        assert!(total > 0.0);
    }

    #[test]
    fn networking_activity_multiplies_hotspots() {
        let (n, p, a) = setup();
        let cfg = PowerConfig { freq_mhz: 1000.0, ..Default::default() };
        let base = PowerGrid::build(&n, &p, &a, &cfg, 8);
        let hot = PowerGrid::build(&n, &p, &a.scaled(5.0), &cfg, 8);
        // Pick a limit between the two peak droops.
        let lim = (base.peak_droop(Node::N28) + hot.peak_droop(Node::N28)) / 2.0;
        assert!(hot.hotspots(Node::N28, lim).len() > base.hotspots(Node::N28, lim).len());
    }

    #[test]
    fn decap_insertion_clears_hotspots() {
        let (n, p, a) = setup();
        let cfg = PowerConfig { freq_mhz: 2000.0, ..Default::default() };
        let mut g = PowerGrid::build(&n, &p, &a.scaled(5.0), &cfg, 8);
        let lim = g.peak_droop(Node::N28) * 0.3;
        let plan = plan_decaps(n.library(), &mut g, Node::N28, lim).unwrap();
        assert!(plan.hotspots_before > 0, "the scenario must start hot");
        assert!(plan.decaps() > 0);
        assert!(
            plan.hotspots_after < plan.hotspots_before,
            "decaps must clear hotspots: {} -> {}",
            plan.hotspots_before,
            plan.hotspots_after
        );
        let mut decapped = n.clone();
        plan.apply(&mut decapped);
        decapped.validate().unwrap();
        assert_eq!(decapped.num_instances(), n.num_instances() + plan.decaps());
    }

    #[test]
    fn droop_falls_with_decap() {
        let (n, p, a) = setup();
        let mut g = PowerGrid::build(&n, &p, &a, &PowerConfig::default(), 4);
        let before = g.droop_mv(1, 1, Node::N28);
        g.add_decap(1, 1, 500.0);
        assert!(g.droop_mv(1, 1, Node::N28) < before);
    }
}
