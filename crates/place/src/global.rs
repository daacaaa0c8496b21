//! Global placement: seeded scatter, force-directed iterations, grid
//! spreading, and legalization onto the site grid.

use crate::floorplan::{Die, Point};
use crate::pins::NetPins;
use crate::placement::Placement;
use eda_netlist::{InstId, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`place_global`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalConfig {
    /// Force-directed smoothing iterations.
    pub iterations: usize,
    /// RNG seed for the initial scatter.
    pub seed: u64,
}

impl Default for GlobalConfig {
    fn default() -> Self {
        GlobalConfig { iterations: 12, seed: 1 }
    }
}

/// Produces a legal global placement: random scatter, force-directed
/// centroid iterations with overlap spreading, then site legalization.
///
/// # Examples
///
/// ```
/// use eda_netlist::generate;
/// use eda_place::{place_global, Die, GlobalConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let n = generate::parity_tree(32)?;
/// let die = Die::for_netlist(&n, 0.7);
/// let p = place_global(&n, die, &GlobalConfig::default());
/// assert!(p.total_hpwl(&n) > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn place_global(netlist: &Netlist, die: Die, cfg: &GlobalConfig) -> Placement {
    place_global_on(&NetPins::build(netlist), netlist, die, cfg)
}

/// [`place_global`] on a pin index the caller already holds.
pub(crate) fn place_global_on(
    pins: &NetPins,
    netlist: &Netlist,
    die: Die,
    cfg: &GlobalConfig,
) -> Placement {
    let mut placement = Placement::new(netlist, die);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = netlist.num_instances();
    // Random scatter.
    for i in 0..n {
        let p = Point::new(rng.gen::<f64>() * die.width_um, rng.gen::<f64>() * die.height_um);
        placement.set_position(InstId::from_index(i), p);
    }
    // Force-directed smoothing: move each cell toward the centroid of the
    // points its nets touch, then push apart overloaded bins.
    for _ in 0..cfg.iterations {
        let mut sum = vec![(0.0f64, 0.0f64, 0usize); n];
        for net in 0..pins.num_nets() {
            let len = pins.num_pins(net);
            if len < 2 {
                continue;
            }
            let cx = pins.points(&placement, net).map(|p| p.x).sum::<f64>() / len as f64;
            let cy = pins.points(&placement, net).map(|p| p.y).sum::<f64>() / len as f64;
            for inst in pins.instances(net) {
                let s = &mut sum[inst.index()];
                s.0 += cx;
                s.1 += cy;
                s.2 += 1;
            }
        }
        for (i, &(sx, sy, k)) in sum.iter().enumerate() {
            if k > 0 {
                placement.set_position(
                    InstId::from_index(i),
                    Point::new(sx / k as f64, sy / k as f64),
                );
            }
        }
        spread(&mut placement, netlist, &mut rng);
    }
    legalize(&mut placement, netlist);
    placement
}

/// Pushes cells out of overloaded bins (simple density spreading).
fn spread(placement: &mut Placement, netlist: &Netlist, rng: &mut StdRng) {
    let die = placement.die;
    let bins = ((netlist.num_instances() as f64).sqrt().ceil() as usize).clamp(2, 64);
    let bw = die.width_um / bins as f64;
    let bh = die.height_um / bins as f64;
    let cap = (netlist.num_instances() as f64 / (bins * bins) as f64 * 2.0).ceil() as usize + 1;
    let mut bin_members: Vec<Vec<usize>> = vec![Vec::new(); bins * bins];
    for i in 0..netlist.num_instances() {
        let p = placement.position(InstId::from_index(i));
        let bx = ((p.x / bw) as usize).min(bins - 1);
        let by = ((p.y / bh) as usize).min(bins - 1);
        bin_members[by * bins + bx].push(i);
    }
    for (b, members) in bin_members.iter_mut().enumerate() {
        while members.len() > cap {
            let i = members.pop().expect("len > cap ≥ 1");
            // Jitter the cell to a random neighbouring bin.
            let bx = b % bins;
            let by = b / bins;
            let nx = (bx as i64 + rng.gen_range(-1..=1)).clamp(0, bins as i64 - 1) as f64;
            let ny = (by as i64 + rng.gen_range(-1..=1)).clamp(0, bins as i64 - 1) as f64;
            let p = Point::new(
                (nx + rng.gen::<f64>()) * bw,
                (ny + rng.gen::<f64>()) * bh,
            );
            placement.set_position(InstId::from_index(i), p);
        }
    }
}

/// Which site slots are still free, answering "first free slot at or after
/// `s`" in near-constant amortised time: `next[s]` is `s` while slot `s` is
/// free and a later slot once it is taken, and lookups compress the chains
/// they walk (union–find over runs of taken slots). `next[len]` is a
/// sentinel that is never taken.
pub(crate) struct FreeSlots {
    next: Vec<u32>,
}

impl FreeSlots {
    /// `len` slots, all free.
    pub(crate) fn new(len: usize) -> FreeSlots {
        let len = u32::try_from(len).expect("fewer than 2^32 sites");
        FreeSlots { next: (0..=len).collect() }
    }

    fn len(&self) -> usize {
        self.next.len() - 1
    }

    /// First free slot at or after `s`; `len` when there is none.
    fn find(&mut self, s: usize) -> usize {
        let mut root = s;
        while self.next[root] as usize != root {
            root = self.next[root] as usize;
        }
        let mut at = s;
        while at != root {
            at = std::mem::replace(&mut self.next[at], root as u32) as usize;
        }
        root
    }

    /// Takes the first free slot in `lo..hi`, if any.
    pub(crate) fn take_in(&mut self, lo: usize, hi: usize) -> Option<usize> {
        let slot = self.find(lo);
        (slot < hi).then(|| {
            self.next[slot] = slot as u32 + 1;
            slot
        })
    }

    /// Takes the first free slot at or after `s`, wrapping past the last
    /// slot round to `s` again — the slot a linear probe from `s` stops at.
    /// `None` when every slot is taken.
    pub(crate) fn take_from(&mut self, s: usize) -> Option<usize> {
        self.take_in(s, self.len()).or_else(|| self.take_in(0, s))
    }
}

/// Snaps every instance, in instance order, to the first free site at or
/// after its own (row-major, wrapping).
pub fn legalize(placement: &mut Placement, netlist: &Netlist) {
    let die = placement.die;
    let mut free = FreeSlots::new(die.num_sites());
    for i in 0..netlist.num_instances() {
        let id = InstId::from_index(i);
        let (c, r) = die.snap(placement.position(id));
        let start = r * die.cols + c;
        // More cells than sites: stack on the preferred site (callers size
        // the die to avoid this; tolerate gracefully).
        let slot = free.take_from(start).unwrap_or(start);
        placement.set_position(id, die.site_center(slot % die.cols, slot / die.cols));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_netlist::generate;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The linear-probe legaliser [`legalize`] replaced, kept as its reference.
    fn legalize_by_probing(placement: &mut Placement, netlist: &Netlist) {
        let die = placement.die;
        let mut occupied = vec![false; die.num_sites()];
        for i in 0..netlist.num_instances() {
            let id = InstId::from_index(i);
            let (c, r) = die.snap(placement.position(id));
            let start = r * die.cols + c;
            let mut slot = start;
            while occupied[slot] {
                slot = (slot + 1) % die.num_sites();
                if slot == start {
                    break;
                }
            }
            occupied[slot] = true;
            let (col, row) = (slot % die.cols, slot / die.cols);
            placement.set_position(id, die.site_center(col, row));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The free-slot legaliser lands every cell where the probe does:
        /// cells piled onto a handful of sites (long occupied runs, wraps
        /// past the last site), on dies from roomy down to fewer sites than
        /// cells (where both stack on the preferred site).
        #[test]
        fn legalize_matches_the_linear_probe(seed in any::<u64>(), cols in 2usize..14, rows in 1usize..14, piles in 1usize..6) {
            let n = generate::parity_tree(64).unwrap();
            let site = 1.5;
            let die = Die {
                width_um: cols as f64 * site,
                height_um: rows as f64 * site,
                site_um: site,
                cols,
                rows,
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let centres: Vec<Point> = (0..piles)
                .map(|_| Point::new(rng.gen::<f64>() * die.width_um, rng.gen::<f64>() * die.height_um))
                .collect();
            let mut fast = Placement::new(&n, die);
            for i in 0..n.num_instances() {
                // Mostly on a pile, sometimes anywhere — including off-die.
                let p = if rng.gen_range(0..8) > 0 {
                    centres[rng.gen_range(0..piles)]
                } else {
                    Point::new(
                        (rng.gen::<f64>() * 1.4 - 0.2) * die.width_um,
                        (rng.gen::<f64>() * 1.4 - 0.2) * die.height_um,
                    )
                };
                fast.set_position(InstId::from_index(i), p);
            }
            let mut slow = fast.clone();
            legalize(&mut fast, &n);
            legalize_by_probing(&mut slow, &n);
            for (i, (a, b)) in fast.positions.iter().zip(&slow.positions).enumerate() {
                prop_assert_eq!((a.x.to_bits(), a.y.to_bits()), (b.x.to_bits(), b.y.to_bits()), "instance {}", i);
            }
        }
    }

    #[test]
    fn global_beats_random_scatter() {
        let n = generate::random_logic(eda_netlist::generate::RandomLogicConfig {
            gates: 400,
            seed: 5,
            ..Default::default()
        })
        .unwrap();
        let die = Die::for_netlist(&n, 0.7);
        // Pure scatter (0 iterations).
        let scatter = place_global(&n, die, &GlobalConfig { iterations: 0, seed: 9 });
        let smoothed = place_global(&n, die, &GlobalConfig { iterations: 12, seed: 9 });
        assert!(
            smoothed.total_hpwl(&n) < scatter.total_hpwl(&n),
            "smoothing must reduce wirelength: {} vs {}",
            smoothed.total_hpwl(&n),
            scatter.total_hpwl(&n)
        );
    }

    #[test]
    fn legalized_placement_has_no_overlaps() {
        let n = generate::switch_fabric(4, 4).unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let p = place_global(&n, die, &GlobalConfig::default());
        let mut seen = HashSet::new();
        for i in 0..n.num_instances() {
            let pos = p.position(InstId::from_index(i));
            let key = ((pos.x * 1000.0) as i64, (pos.y * 1000.0) as i64);
            assert!(seen.insert(key), "two cells share a site at {pos:?}");
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let n = generate::parity_tree(32).unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let a = place_global(&n, die, &GlobalConfig { iterations: 5, seed: 42 });
        let b = place_global(&n, die, &GlobalConfig { iterations: 5, seed: 42 });
        assert_eq!(a.total_hpwl(&n), b.total_hpwl(&n));
    }

    #[test]
    fn cells_inside_die() {
        let n = generate::parity_tree(64).unwrap();
        let die = Die::for_netlist(&n, 0.6);
        let p = place_global(&n, die, &GlobalConfig::default());
        for i in 0..n.num_instances() {
            let pos = p.position(InstId::from_index(i));
            assert!(pos.x >= 0.0 && pos.x <= die.width_um);
            assert!(pos.y >= 0.0 && pos.y <= die.height_um);
        }
    }
}
