//! The placer's flat pin index and the wirelength kernels that run on it.
//!
//! Every placer stage asks the same question thousands to millions of times:
//! where are the pins of net *n* right now? The netlist can answer it — walk
//! the driver, the sinks, then scan the primary outputs for the ones that
//! observe the net — but only by chasing three tables and touching every PO
//! for every net. [`NetPins`] answers it from one CSR array built once per
//! stage: net → pin codes, each code naming an instance, a primary-input pin
//! or a primary-output pin of the [`Placement`]. The kernels allocate
//! nothing.
//!
//! A net's pins are stored in the order the netlist walk yields them —
//! driver, sinks in sink order (one entry per connected input pin, so an
//! instance can appear more than once), observing POs in PO order — because
//! the force-directed centroid is an `f64` sum over them and must keep its
//! operand order. Bounding boxes are min/max folds, exact in any order.

use crate::floorplan::Point;
use crate::placement::Placement;
use eda_netlist::{InstId, NetDriver, Netlist};

/// Pin-code tag of a primary-input pin; the low bits are the PI index.
const PI_TAG: u32 = 1 << 31;
/// Pin-code tag of a primary-output pin; the low bits are the PO index.
/// Untagged codes are instance indices.
const PO_TAG: u32 = 1 << 30;
const INDEX_MASK: u32 = PO_TAG - 1;

/// Net → pins in CSR form. A pure function of the netlist's connectivity:
/// positions are read from the [`Placement`] handed to each kernel, so one
/// index serves every placement of the same netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetPins {
    /// Net `n`'s pin codes are `codes[start[n]..start[n + 1]]`.
    start: Vec<u32>,
    codes: Vec<u32>,
}

impl NetPins {
    /// Indexes every net of `netlist`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has 2³⁰ or more instances, primary inputs or
    /// primary outputs, or 2³² or more pins.
    pub fn build(netlist: &Netlist) -> NetPins {
        let outputs = netlist.primary_outputs();
        let widest = netlist
            .num_instances()
            .max(netlist.primary_inputs().len())
            .max(outputs.len());
        assert!(
            widest <= INDEX_MASK as usize,
            "netlist too large for 30-bit pin codes"
        );

        // Pin counts per net, shifted by one, then prefix-summed in place.
        let mut start = vec![0usize; netlist.num_nets() + 1];
        for (id, net) in netlist.nets() {
            start[id.index() + 1] = net.driver().is_some() as usize + net.fanout();
        }
        for (_, net) in outputs {
            start[net.index() + 1] += 1;
        }
        for n in 0..netlist.num_nets() {
            start[n + 1] += start[n];
        }
        let total = start[netlist.num_nets()];
        assert!(
            u32::try_from(total).is_ok(),
            "netlist too large for 32-bit pin offsets"
        );

        // Driver and sinks of every net first, then the POs in PO order, each
        // appended at its net's cursor.
        let mut codes = vec![0u32; total];
        let mut at = start[..netlist.num_nets()].to_vec();
        let mut put = |net: usize, code: u32| {
            codes[at[net]] = code;
            at[net] += 1;
        };
        for (id, net) in netlist.nets() {
            match net.driver() {
                Some(NetDriver::PrimaryInput(k)) => put(id.index(), PI_TAG | k as u32),
                Some(NetDriver::Instance(i)) => put(id.index(), i.index() as u32),
                None => {}
            }
            for &(s, _) in net.sinks() {
                put(id.index(), s.index() as u32);
            }
        }
        for (k, (_, net)) in outputs.iter().enumerate() {
            put(net.index(), PO_TAG | k as u32);
        }
        let start = start.into_iter().map(|s| s as u32).collect();
        NetPins { start, codes }
    }

    /// Nets indexed.
    pub fn num_nets(&self) -> usize {
        self.start.len() - 1
    }

    fn codes(&self, net: usize) -> &[u32] {
        &self.codes[self.start[net] as usize..self.start[net + 1] as usize]
    }

    /// Pins on net `net`, counting an instance once per connected pin.
    pub fn num_pins(&self, net: usize) -> usize {
        self.codes(net).len()
    }

    /// The points net `net` (a [`NetId::index`](eda_netlist::NetId::index))
    /// touches: driver, instance sinks, then observing PO pins.
    pub fn points<'a>(
        &'a self,
        placement: &'a Placement,
        net: usize,
    ) -> impl Iterator<Item = Point> + 'a {
        self.codes(net).iter().map(move |&code| {
            let i = (code & INDEX_MASK) as usize;
            if code < PO_TAG {
                placement.positions[i]
            } else if code >= PI_TAG {
                placement.pi_pins[i]
            } else {
                placement.po_pins[i]
            }
        })
    }

    /// The instance pins of net `net` in pin order: the driver when it is an
    /// instance, then one entry per connected sink pin.
    pub(crate) fn instances(&self, net: usize) -> impl Iterator<Item = InstId> + '_ {
        self.codes(net)
            .iter()
            .filter(|&&c| c < PO_TAG)
            .map(|&c| InstId::from_index(c as usize))
    }

    /// Bounding box `(min, max)` of one net; `None` for a net with no pins.
    pub fn net_bbox(&self, placement: &Placement, net: usize) -> Option<(Point, Point)> {
        if self.num_pins(net) == 0 {
            return None;
        }
        let (mut xmin, mut xmax, mut ymin, mut ymax) = (
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        );
        for p in self.points(placement, net) {
            xmin = xmin.min(p.x);
            xmax = xmax.max(p.x);
            ymin = ymin.min(p.y);
            ymax = ymax.max(p.y);
        }
        Some((Point::new(xmin, ymin), Point::new(xmax, ymax)))
    }

    /// Half-perimeter wirelength of one net, µm (zero under two pins).
    pub fn net_hpwl(&self, placement: &Placement, net: usize) -> f64 {
        if self.num_pins(net) < 2 {
            return 0.0;
        }
        let (lo, hi) = self.net_bbox(placement, net).expect("two pins or more");
        (hi.x - lo.x) + (hi.y - lo.y)
    }

    /// Every net's HPWL, in net order — the annealer's cost cache.
    pub(crate) fn net_costs(&self, placement: &Placement) -> Vec<f64> {
        (0..self.num_nets())
            .map(|n| self.net_hpwl(placement, n))
            .collect()
    }

    /// Total half-perimeter wirelength, µm, summed in net order.
    pub fn total_hpwl(&self, placement: &Placement) -> f64 {
        (0..self.num_nets())
            .map(|n| self.net_hpwl(placement, n))
            .sum()
    }
}

/// The netlist-walking geometry the index replaced, kept as the reference
/// the kernels are tested against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use eda_netlist::NetId;

    /// All the points a net touches: driver, instance sinks, and PO pins.
    pub(crate) fn net_points(placement: &Placement, netlist: &Netlist, net: NetId) -> Vec<Point> {
        let mut pts = Vec::new();
        let n = netlist.net(net);
        match n.driver() {
            Some(NetDriver::PrimaryInput(k)) => pts.push(placement.pi_pin(k)),
            Some(NetDriver::Instance(i)) => pts.push(placement.position(i)),
            None => {}
        }
        for &(s, _) in n.sinks() {
            pts.push(placement.position(s));
        }
        for (k, &(_, po_net)) in netlist.primary_outputs().iter().enumerate() {
            if po_net == net {
                pts.push(placement.po_pin(k));
            }
        }
        pts
    }

    /// Bounding box `(min, max)` of one net.
    pub(crate) fn net_bbox(
        placement: &Placement,
        netlist: &Netlist,
        net: NetId,
    ) -> Option<(Point, Point)> {
        let pts = net_points(placement, netlist, net);
        if pts.is_empty() {
            return None;
        }
        let (mut xmin, mut xmax, mut ymin, mut ymax) = (
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        );
        for p in pts {
            xmin = xmin.min(p.x);
            xmax = xmax.max(p.x);
            ymin = ymin.min(p.y);
            ymax = ymax.max(p.y);
        }
        Some((Point::new(xmin, ymin), Point::new(xmax, ymax)))
    }

    /// Half-perimeter wirelength of one net, µm.
    pub(crate) fn net_hpwl(placement: &Placement, netlist: &Netlist, net: NetId) -> f64 {
        if net_points(placement, netlist, net).len() < 2 {
            return 0.0;
        }
        let (lo, hi) = net_bbox(placement, netlist, net).expect("two points or more");
        (hi.x - lo.x) + (hi.y - lo.y)
    }

    /// Total half-perimeter wirelength, µm.
    pub(crate) fn total_hpwl(placement: &Placement, netlist: &Netlist) -> f64 {
        netlist
            .nets()
            .map(|(id, _)| net_hpwl(placement, netlist, id))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Die;
    use eda_netlist::{generate, CellFunction};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every pin-list shape the index has to reproduce: a PI-driven net, a
    /// net observed by two POs (and a PO on a PI net), a flop that both
    /// drives and sinks its own net, a gate with both inputs on one net, an
    /// undriven net and a pinless net.
    fn corner_netlist() -> Netlist {
        let mut n = Netlist::new("corners");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let ck = n.add_input("ck");
        let x = n.add_gate_fn("x", CellFunction::And(2), &[a, b]).unwrap();
        let y = n.add_gate_fn("y", CellFunction::Xor2, &[x, x]).unwrap();
        let q = n.add_net("q");
        let dff = n.library().find_function(CellFunction::Dff).unwrap();
        n.add_gate_with_output("ff", dff, &[q, ck], q).unwrap();
        let floating = n.add_net("floating");
        n.add_gate_fn("z", CellFunction::Or(2), &[q, floating])
            .unwrap();
        n.add_net("pinless");
        n.add_output("y0", y);
        n.add_output("a_thru", a);
        n.add_output("y1", y);
        n.add_output("q0", q);
        n
    }

    fn scattered(netlist: &Netlist, seed: u64) -> Placement {
        let die = Die::for_netlist(netlist, 0.7);
        let mut p = Placement::new(netlist, die);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..netlist.num_instances() {
            // A coarse lattice, so coincident pins and ties are common.
            let x = rng.gen_range(0..4) as f64 / 3.0 * die.width_um;
            let y = rng.gen_range(0..4) as f64 / 3.0 * die.height_um;
            p.set_position(InstId::from_index(i), Point::new(x, y));
        }
        p
    }

    fn assert_kernels_match_the_walk(netlist: &Netlist, p: &Placement) -> Result<(), String> {
        let pins = NetPins::build(netlist);
        prop_assert_eq!(pins.num_nets(), netlist.num_nets());
        for (id, net) in netlist.nets() {
            let want = oracle::net_points(p, netlist, id);
            let got: Vec<Point> = pins.points(p, id.index()).collect();
            prop_assert_eq!(&got, &want);
            let insts: Vec<InstId> = pins.instances(id.index()).collect();
            let mut walk: Vec<InstId> = Vec::new();
            if let Some(NetDriver::Instance(d)) = net.driver() {
                walk.push(d);
            }
            walk.extend(net.sinks().iter().map(|&(s, _)| s));
            prop_assert_eq!(insts, walk);
            prop_assert_eq!(
                pins.net_hpwl(p, id.index()).to_bits(),
                oracle::net_hpwl(p, netlist, id).to_bits()
            );
            prop_assert_eq!(
                pins.net_bbox(p, id.index()),
                oracle::net_bbox(p, netlist, id)
            );
        }
        prop_assert_eq!(
            pins.total_hpwl(p).to_bits(),
            oracle::total_hpwl(p, netlist).to_bits()
        );
        prop_assert_eq!(
            p.total_hpwl(netlist).to_bits(),
            oracle::total_hpwl(p, netlist).to_bits()
        );
        let costs = pins.net_costs(p);
        prop_assert_eq!(
            costs.iter().sum::<f64>().to_bits(),
            pins.total_hpwl(p).to_bits()
        );
        Ok(())
    }

    #[test]
    fn corner_netlist_has_the_shapes_it_claims() {
        let n = corner_netlist();
        let pins = NetPins::build(&n);
        let p = scattered(&n, 1);
        let len = |name: &str| pins.num_pins(n.find_net(name).unwrap().index());
        assert_eq!(len("a"), 3, "PI driver, one sink, one PO");
        assert_eq!(len("y_out"), 3, "driver and two POs");
        assert_eq!(len("x_out"), 3, "driver and the same sink twice");
        assert_eq!(len("q"), 4, "flop drives and sinks it, or-gate sink, PO");
        assert_eq!(len("floating"), 1);
        assert_eq!(len("pinless"), 0);
        assert_eq!(
            pins.net_bbox(&p, n.find_net("pinless").unwrap().index()),
            None
        );
        assert_eq!(
            pins.net_hpwl(&p, n.find_net("floating").unwrap().index()),
            0.0
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn kernels_match_the_netlist_walk_on_corner_shapes(seed in any::<u64>()) {
            let n = corner_netlist();
            assert_kernels_match_the_walk(&n, &scattered(&n, seed))?;
        }

        #[test]
        fn kernels_match_the_netlist_walk_on_generated_designs(seed in any::<u64>(), pick in 0usize..4) {
            let n = match pick {
                0 => generate::array_multiplier(4).unwrap(),
                1 => generate::switch_fabric(2, 3).unwrap(),
                2 => generate::mesh_fabric(2, 2, 40, 4, seed % 7).unwrap(),
                _ => generate::random_logic(generate::RandomLogicConfig {
                    gates: 120,
                    seed: seed % 11,
                    ..Default::default()
                })
                .unwrap(),
            };
            assert_kernels_match_the_walk(&n, &scattered(&n, seed))?;
        }
    }
}
