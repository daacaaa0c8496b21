//! The placement result: instance coordinates, I/O pin positions, and
//! wirelength metrics.

use crate::floorplan::{Die, Point};
use crate::pins::NetPins;
use eda_netlist::{InstId, Netlist};

/// A complete placement of a netlist onto a die.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// The die.
    pub die: Die,
    /// Instance positions, indexed by instance position in the netlist.
    pub(crate) positions: Vec<Point>,
    /// Primary-input pin positions, indexed by PI order.
    pub(crate) pi_pins: Vec<Point>,
    /// Primary-output pin positions, indexed by PO order.
    pub(crate) po_pins: Vec<Point>,
}

impl Placement {
    /// Creates a placement with every instance at the die center and I/O pins
    /// spread along the boundary.
    pub fn new(netlist: &Netlist, die: Die) -> Placement {
        let center = Point::new(die.width_um / 2.0, die.height_um / 2.0);
        let n_pi = netlist.primary_inputs().len();
        let n_po = netlist.primary_outputs().len();
        let pins = die.boundary_pins(n_pi + n_po);
        Placement {
            die,
            positions: vec![center; netlist.num_instances()],
            pi_pins: pins[..n_pi].to_vec(),
            po_pins: pins[n_pi..].to_vec(),
        }
    }

    /// Rebuilds a placement from its raw geometry — the die and the slices
    /// [`Placement::positions`], [`Placement::pi_pins`] and
    /// [`Placement::po_pins`] return — bit-identically, without re-deriving
    /// anything from a netlist (whose instance count may since have changed,
    /// e.g. after decap insertion).
    pub fn from_parts(die: Die, positions: Vec<Point>, pi_pins: Vec<Point>, po_pins: Vec<Point>) -> Placement {
        Placement { die, positions, pi_pins, po_pins }
    }

    /// Every instance position, in instance storage order.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Every primary-input pin position, in PI order.
    pub fn pi_pins(&self) -> &[Point] {
        &self.pi_pins
    }

    /// Every primary-output pin position, in PO order.
    pub fn po_pins(&self) -> &[Point] {
        &self.po_pins
    }

    /// Position of an instance.
    pub fn position(&self, inst: InstId) -> Point {
        self.positions[inst.index()]
    }

    /// Moves an instance.
    pub fn set_position(&mut self, inst: InstId, p: Point) {
        self.positions[inst.index()] = p;
    }

    /// Pin position of primary input `i`.
    pub fn pi_pin(&self, i: usize) -> Point {
        self.pi_pins[i]
    }

    /// Pin position of primary output `i`.
    pub fn po_pin(&self, i: usize) -> Point {
        self.po_pins[i]
    }

    /// Number of instance positions held.
    pub fn num_instances(&self) -> usize {
        self.positions.len()
    }

    /// Total half-perimeter wirelength, µm — the one-shot form of
    /// [`NetPins::total_hpwl`], indexing the netlist for this one call.
    /// Code that evaluates wirelength repeatedly builds the [`NetPins`]
    /// once and calls its kernels instead.
    pub fn total_hpwl(&self, netlist: &Netlist) -> f64 {
        NetPins::build(netlist).total_hpwl(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_netlist::{generate, NetDriver};

    #[test]
    fn initial_placement_centers_cells() {
        let n = generate::parity_tree(8).unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let p = Placement::new(&n, die);
        let c = p.position(InstId::from_index(0));
        assert!((c.x - die.width_um / 2.0).abs() < 1e-9);
    }

    #[test]
    fn hpwl_zero_when_coincident_no_io() {
        let n = generate::parity_tree(4).unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let p = Placement::new(&n, die);
        let pins = NetPins::build(&n);
        // Internal nets (between coincident cells) have zero HPWL; nets
        // touching boundary pins do not.
        let mut internal = 0;
        for (id, net) in n.nets() {
            let touches_io = matches!(net.driver(), Some(NetDriver::PrimaryInput(_)))
                || n.primary_outputs().iter().any(|&(_, o)| o == id);
            if !touches_io && net.fanout() > 0 {
                assert_eq!(pins.net_hpwl(&p, id.index()), 0.0);
                internal += 1;
            }
        }
        assert!(internal > 0);
    }

    #[test]
    fn moving_a_cell_changes_hpwl() {
        let n = generate::ripple_carry_adder(4).unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let mut p = Placement::new(&n, die);
        let before = p.total_hpwl(&n);
        p.set_position(InstId::from_index(0), Point::new(0.0, 0.0));
        let after = p.total_hpwl(&n);
        assert_ne!(before, after);
    }

    #[test]
    fn bbox_contains_all_points() {
        let n = generate::parity_tree(8).unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let p = Placement::new(&n, die);
        let pins = NetPins::build(&n);
        for net in 0..pins.num_nets() {
            if let Some((lo, hi)) = pins.net_bbox(&p, net) {
                for pt in pins.points(&p, net) {
                    assert!(pt.x >= lo.x - 1e-9 && pt.x <= hi.x + 1e-9);
                    assert!(pt.y >= lo.y - 1e-9 && pt.y <= hi.y + 1e-9);
                }
            }
        }
    }
}
