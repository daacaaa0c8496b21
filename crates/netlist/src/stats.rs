//! Netlist structural statistics.

use crate::cell::CellFunction;
use crate::netlist::Netlist;
use std::collections::BTreeMap;

/// Summary statistics of a netlist's structure.
///
/// # Examples
///
/// ```
/// use eda_netlist::{generate, NetlistStats};
/// # fn main() -> Result<(), eda_netlist::NetlistError> {
/// let n = generate::ripple_carry_adder(8)?;
/// let s = NetlistStats::of(&n);
/// assert_eq!(s.flops, 0);
/// assert!(s.avg_fanout > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistStats {
    /// Total instances.
    pub instances: usize,
    /// Total nets.
    pub nets: usize,
    /// Sequential (flip-flop) instances.
    pub flops: usize,
    /// Combinational instances.
    pub combinational: usize,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Total cell area in µm².
    pub area_um2: f64,
    /// Mean net fanout.
    pub avg_fanout: f64,
    /// Maximum net fanout.
    pub max_fanout: usize,
    /// Longest combinational path length in gates.
    pub logic_depth: usize,
    /// Instance count per cell name.
    pub cell_histogram: BTreeMap<String, usize>,
}

/// The one rule that classifies an instance for [`NetlistStats`]: a
/// sequential cell is a flop, a decap is neither, anything else is
/// combinational. Bumps the matching half of `(combinational, flops)`.
fn count_cell(counts: &mut (usize, usize), function: CellFunction) {
    match function {
        f if f.is_sequential() => counts.1 += 1,
        CellFunction::Decap => {}
        _ => counts.0 += 1,
    }
}

impl NetlistStats {
    /// Computes statistics for a netlist.
    pub fn of(netlist: &Netlist) -> NetlistStats {
        let lib = netlist.library();
        let mut counts = (0, 0);
        let mut hist: BTreeMap<String, usize> = BTreeMap::new();
        for (_, inst) in netlist.instances() {
            let def = lib.cell(inst.cell());
            *hist.entry(def.name.clone()).or_insert(0) += 1;
            count_cell(&mut counts, def.function);
        }
        let (comb, flops) = counts;
        let fanouts: Vec<usize> = netlist.nets().map(|(_, n)| n.fanout()).collect();
        let total: usize = fanouts.iter().sum();
        NetlistStats {
            instances: netlist.num_instances(),
            nets: netlist.num_nets(),
            flops,
            combinational: comb,
            inputs: netlist.primary_inputs().len(),
            outputs: netlist.primary_outputs().len(),
            area_um2: netlist.area_um2(),
            avg_fanout: if fanouts.is_empty() { 0.0 } else { total as f64 / fanouts.len() as f64 },
            max_fanout: fanouts.iter().copied().max().unwrap_or(0),
            logic_depth: netlist.logic_depth(),
            cell_histogram: hist,
        }
    }

    /// `(combinational, flops)` of [`NetlistStats::of`] alone: one pass
    /// over the instances, without the histogram, fanouts or depth walk.
    pub fn cell_counts(netlist: &Netlist) -> (usize, usize) {
        let lib = netlist.library();
        let mut counts = (0, 0);
        for (_, inst) in netlist.instances() {
            count_cell(&mut counts, lib.cell(inst.cell()).function);
        }
        counts
    }
}

impl std::fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "instances:   {}", self.instances)?;
        writeln!(f, "  comb/seq:  {}/{}", self.combinational, self.flops)?;
        writeln!(f, "nets:        {}", self.nets)?;
        writeln!(f, "ports:       {} in / {} out", self.inputs, self.outputs)?;
        writeln!(f, "area:        {:.1} um^2", self.area_um2)?;
        writeln!(f, "fanout:      avg {:.2}, max {}", self.avg_fanout, self.max_fanout)?;
        write!(f, "logic depth: {}", self.logic_depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn stats_count_correctly() {
        let n = generate::switch_fabric(4, 2).unwrap();
        let s = NetlistStats::of(&n);
        assert_eq!(s.instances, n.num_instances());
        assert_eq!(s.flops, 8, "one flop per (port, bit)");
        assert_eq!(s.combinational + s.flops, s.instances);
        assert_eq!(NetlistStats::cell_counts(&n), (s.combinational, s.flops));
        assert!(s.cell_histogram.values().sum::<usize>() == s.instances);
        assert!(s.max_fanout >= 4);
    }

    #[test]
    fn display_is_nonempty() {
        let n = generate::parity_tree(8).unwrap();
        let s = NetlistStats::of(&n);
        let text = s.to_string();
        assert!(text.contains("instances"));
        assert!(text.contains("logic depth"));
    }

    #[test]
    fn depth_of_parity_tree_is_logarithmic() {
        let n = generate::parity_tree(32).unwrap();
        let s = NetlistStats::of(&n);
        assert_eq!(s.logic_depth, 5, "32-leaf XOR tree has depth log2(32)");
    }
}
