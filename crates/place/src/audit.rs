//! The independent placement auditor: is this placement legal, and is the
//! wirelength the placer reported the wirelength it has?
//!
//! Bit-identity across thread counts and commits proves the placer
//! deterministic, not right — a legaliser that stacks two cells on one site,
//! or a cost cache that drifts from the positions, does so identically every
//! time. This check shares no code with what it audits (the pin index of
//! [`crate::pins`], the free-slot legaliser, the annealer's occupancy table
//! and cost cache): sites are recovered from the coordinates with its own
//! arithmetic, occupancy is counted into a fresh table, and HPWL is
//! recomputed by walking the netlist.

use crate::placement::Placement;
use eda_netlist::{InstId, NetDriver, Netlist};

/// Checks a finished placement of `netlist`:
///
/// - it holds exactly one position per instance;
/// - every instance sits on the centre of a site inside the die;
/// - no site holds two instances (checked when the die has at least as many
///   sites as the netlist has instances — an undersized die is allowed to
///   stack);
/// - total HPWL, recomputed from the netlist, equals `reported_hpwl_um` bit
///   for bit.
pub fn audit_placement(
    netlist: &Netlist,
    placement: &Placement,
    reported_hpwl_um: f64,
) -> Result<(), String> {
    let die = placement.die;
    let n = netlist.num_instances();
    if placement.num_instances() != n {
        return Err(format!(
            "{} positions for {n} instances",
            placement.num_instances()
        ));
    }

    let mut holder: Vec<Option<InstId>> = vec![None; die.cols * die.rows];
    let site_of = |coord: f64, lanes: usize| -> Option<usize> {
        let lane = (coord / die.site_um - 0.5).round();
        let on_centre = (lane + 0.5) * die.site_um == coord;
        (lane >= 0.0 && lane < lanes as f64 && on_centre).then_some(lane as usize)
    };
    for (id, inst) in netlist.instances() {
        let p = placement.position(id);
        let (Some(col), Some(row)) = (site_of(p.x, die.cols), site_of(p.y, die.rows)) else {
            return Err(format!(
                "{} at ({}, {}) is not on a site centre of the die",
                inst.name(),
                p.x,
                p.y
            ));
        };
        if let Some(other) = holder[row * die.cols + col].replace(id) {
            if holder.len() >= n {
                return Err(format!(
                    "{} and {} share site ({col}, {row})",
                    netlist.instance(other).name(),
                    inst.name()
                ));
            }
        }
    }

    // Per-net bounding boxes: the driver and sinks from the net table, then
    // one pass over the primary outputs.
    let mut boxes = vec![
        (
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0usize
        );
        netlist.num_nets()
    ];
    let mut grow = |net: usize, x: f64, y: f64| {
        let b = &mut boxes[net];
        *b = (b.0.min(x), b.1.max(x), b.2.min(y), b.3.max(y), b.4 + 1);
    };
    for (id, net) in netlist.nets() {
        match net.driver() {
            Some(NetDriver::PrimaryInput(k)) => {
                let p = placement.pi_pin(k);
                grow(id.index(), p.x, p.y);
            }
            Some(NetDriver::Instance(i)) => {
                let p = placement.position(i);
                grow(id.index(), p.x, p.y);
            }
            None => {}
        }
        for &(sink, _) in net.sinks() {
            let p = placement.position(sink);
            grow(id.index(), p.x, p.y);
        }
    }
    for (k, (_, net)) in netlist.primary_outputs().iter().enumerate() {
        let p = placement.po_pin(k);
        grow(net.index(), p.x, p.y);
    }
    let hpwl: f64 = boxes
        .iter()
        .map(|&(x0, x1, y0, y1, pins)| if pins < 2 { 0.0 } else { (x1 - x0) + (y1 - y0) })
        .sum();
    if hpwl.to_bits() != reported_hpwl_um.to_bits() {
        return Err(format!(
            "placement has HPWL {hpwl} µm, placer reported {reported_hpwl_um} µm"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::{Die, Point};
    use crate::global::{place_global, GlobalConfig};
    use eda_netlist::generate;

    fn placed() -> (Netlist, Placement) {
        let n = generate::switch_fabric(3, 4).unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let p = place_global(&n, die, &GlobalConfig::default());
        (n, p)
    }

    #[test]
    fn legal_placement_with_its_own_hpwl_passes() {
        let (n, p) = placed();
        assert_eq!(audit_placement(&n, &p, p.total_hpwl(&n)), Ok(()));
    }

    #[test]
    fn each_defect_is_named() {
        let (n, p) = placed();
        let hpwl = p.total_hpwl(&n);
        let (a, b) = (InstId::from_index(0), InstId::from_index(1));

        let err = audit_placement(&n, &p, hpwl + 1.0).unwrap_err();
        assert!(err.contains("placer reported"), "{err}");

        let mut stacked = p.clone();
        stacked.set_position(a, p.position(b));
        let err = audit_placement(&n, &stacked, stacked.total_hpwl(&n)).unwrap_err();
        assert!(err.contains("share site"), "{err}");

        let mut off_site = p.clone();
        let at = p.position(a);
        off_site.set_position(a, Point::new(at.x + p.die.site_um / 4.0, at.y));
        let err = audit_placement(&n, &off_site, off_site.total_hpwl(&n)).unwrap_err();
        assert!(err.contains("not on a site centre"), "{err}");

        let mut outside = p.clone();
        outside.set_position(a, Point::new(at.x + p.die.width_um, at.y));
        let err = audit_placement(&n, &outside, outside.total_hpwl(&n)).unwrap_err();
        assert!(err.contains("not on a site centre"), "{err}");

        let bigger = generate::switch_fabric(3, 5).unwrap();
        let err = audit_placement(&bigger, &p, hpwl).unwrap_err();
        assert!(err.contains("positions for"), "{err}");
    }

    #[test]
    fn an_undersized_die_may_stack() {
        let n = generate::parity_tree(16).unwrap();
        let mut die = Die::for_netlist(&n, 0.7);
        die.cols = 2;
        die.rows = 2;
        die.width_um = 2.0 * die.site_um;
        die.height_um = 2.0 * die.site_um;
        let mut p = Placement::new(&n, die);
        crate::global::legalize(&mut p, &n);
        assert!(n.num_instances() > die.num_sites());
        assert_eq!(audit_placement(&n, &p, p.total_hpwl(&n)), Ok(()));
    }
}
