//! Buffer-insertion planning for long nets.
//!
//! Domic: *"the flat implementation of a hierarchical design can save silicon
//! real estate, and power consumption — due to the lesser amount of
//! buffering."* Claim C7 compares the buffering this module plans for a flat
//! placement against a hierarchical one of the same design.

use crate::pins::NetPins;
use crate::placement::Placement;
use eda_netlist::{CellFunction, Netlist};

/// Result of buffer planning over a placed design.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferPlan {
    /// Buffers needed per net (same order as `netlist.nets()`).
    pub per_net: Vec<u32>,
    /// Total buffers.
    pub total: u32,
    /// Added cell area in µm² (reference node).
    pub added_area_um2: f64,
    /// Added leakage in nW.
    pub added_leakage_nw: f64,
}

/// Plans buffers: a net needs `ceil(hpwl / max_unbuffered_um) - 1` repeaters,
/// plus `extra_per_net` mandatory buffers on nets listed in `forced` (used
/// for hierarchical boundary feedthroughs).
///
/// # Panics
///
/// Panics if `max_unbuffered_um <= 0`.
pub fn plan_buffers(
    netlist: &Netlist,
    placement: &Placement,
    max_unbuffered_um: f64,
    forced: &[(usize, u32)],
) -> BufferPlan {
    assert!(max_unbuffered_um > 0.0, "max unbuffered length must be positive");
    let lib = netlist.library();
    let buf = lib
        .find_function(CellFunction::Buf)
        .map(|id| lib.cell(id))
        .expect("library provides a buffer cell");
    let pins = NetPins::build(netlist);
    let mut per_net = Vec::with_capacity(pins.num_nets());
    let mut total = 0u32;
    for net in 0..pins.num_nets() {
        let hpwl = pins.net_hpwl(placement, net);
        let mut k = if hpwl > max_unbuffered_um {
            (hpwl / max_unbuffered_um).ceil() as u32 - 1
        } else {
            0
        };
        if let Some(&(_, extra)) = forced.iter().find(|&&(idx, _)| idx == net) {
            k += extra;
        }
        total += k;
        per_net.push(k);
    }
    BufferPlan {
        per_net,
        total,
        added_area_um2: total as f64 * buf.area_um2,
        added_leakage_nw: total as f64 * buf.leakage_nw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Die;
    use crate::global::{place_global, GlobalConfig};
    use eda_netlist::generate;

    #[test]
    fn short_nets_need_no_buffers() {
        let n = generate::parity_tree(16).unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let p = place_global(&n, die, &GlobalConfig::default());
        let plan = plan_buffers(&n, &p, 1e9, &[]);
        assert_eq!(plan.total, 0);
        assert_eq!(plan.added_area_um2, 0.0);
    }

    #[test]
    fn tight_limit_forces_buffers() {
        let n = generate::random_logic(generate::RandomLogicConfig {
            gates: 200,
            seed: 2,
            ..Default::default()
        })
        .unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let p = place_global(&n, die, &GlobalConfig::default());
        let loose = plan_buffers(&n, &p, die.width_um * 2.0, &[]);
        let tight = plan_buffers(&n, &p, die.width_um / 8.0, &[]);
        assert!(tight.total > loose.total);
        assert!(tight.added_area_um2 > 0.0);
        assert!(tight.added_leakage_nw > 0.0);
    }

    #[test]
    fn forced_buffers_added() {
        let n = generate::parity_tree(8).unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let p = place_global(&n, die, &GlobalConfig::default());
        let base = plan_buffers(&n, &p, 1e9, &[]);
        let forced = plan_buffers(&n, &p, 1e9, &[(0, 2), (1, 2)]);
        assert_eq!(forced.total, base.total + 4);
    }

    #[test]
    fn per_net_sums_to_total() {
        let n = generate::switch_fabric(4, 2).unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let p = place_global(&n, die, &GlobalConfig::default());
        let plan = plan_buffers(&n, &p, die.width_um / 4.0, &[]);
        assert_eq!(plan.per_net.iter().sum::<u32>(), plan.total);
    }
}
