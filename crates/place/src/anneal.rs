//! Simulated-annealing detailed placement on the legal site grid.

use crate::floorplan::Die;
use crate::pins::NetPins;
use crate::placement::Placement;
use eda_netlist::{InstId, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Initial temperature as a fraction of die half-perimeter.
const T0_FRACTION: f64 = 0.05;

/// Annealer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealConfig {
    /// Proposed moves per cell (total moves = cells × this).
    pub moves_per_cell: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig { moves_per_cell: 60, seed: 1 }
    }
}

/// Statistics from an annealing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealStats {
    /// HPWL before, µm.
    pub hpwl_before: f64,
    /// HPWL after, µm.
    pub hpwl_after: f64,
    /// Moves proposed.
    pub proposed: usize,
    /// Moves accepted.
    pub accepted: usize,
}

/// What an anneal reads besides positions: both directions of the pin
/// incidence, net → pins ([`NetPins`]) and instance → nets (CSR). A pure
/// function of the netlist, built once per placer stage and shared by every
/// anneal in it.
pub(crate) struct AnnealIndex {
    pub(crate) pins: NetPins,
    /// Instance `i`'s nets are `nets[start[i]..start[i + 1]]`, each net once,
    /// in ascending net order.
    start: Vec<u32>,
    nets: Vec<u32>,
}

impl AnnealIndex {
    pub(crate) fn build(netlist: &Netlist) -> AnnealIndex {
        let pins = NetPins::build(netlist);
        let n = netlist.num_instances();
        // Every (instance, net) incidence once, in net order. Nets are
        // visited ascending, so an instance with several pins on one net
        // sees them back to back: "the last net recorded for this instance"
        // is the whole duplicate check.
        let mut last = vec![u32::MAX; n];
        let mut incidences: Vec<(usize, u32)> = Vec::new();
        for net in 0..pins.num_nets() as u32 {
            for inst in pins.instances(net as usize) {
                if std::mem::replace(&mut last[inst.index()], net) != net {
                    incidences.push((inst.index(), net));
                }
            }
        }
        // Counting sort by instance; stable, so each instance's nets ascend.
        let mut start = vec![0u32; n + 1];
        for &(inst, _) in &incidences {
            start[inst + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut at = start.clone();
        let mut nets = vec![0u32; incidences.len()];
        for (inst, net) in incidences {
            nets[at[inst] as usize] = net;
            at[inst] += 1;
        }
        AnnealIndex { pins, start, nets }
    }

    fn num_instances(&self) -> usize {
        self.start.len() - 1
    }

    fn nets_of(&self, inst: InstId) -> &[u32] {
        &self.nets[self.start[inst.index()] as usize..self.start[inst.index() + 1] as usize]
    }
}

/// A rectangular site region `[c0, c1) × [r0, r1)` restricting moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First column (inclusive).
    pub c0: usize,
    /// Last column (exclusive).
    pub c1: usize,
    /// First row (inclusive).
    pub r0: usize,
    /// Last row (exclusive).
    pub r1: usize,
}

impl Region {
    /// The whole die.
    pub fn full(die: &Die) -> Region {
        Region { c0: 0, c1: die.cols, r0: 0, r1: die.rows }
    }

    /// Whether a site lies inside the region.
    pub fn contains(&self, col: usize, row: usize) -> bool {
        col >= self.c0 && col < self.c1 && row >= self.r0 && row < self.r1
    }
}

/// Improves a legal placement by simulated annealing (swap / move-to-free
/// moves, incremental HPWL evaluation, geometric cooling).
///
/// Only instances in `movable` are touched; pass `None` to move everything.
/// Target sites are confined to `region` when given — partitioned placement
/// uses this to keep threads on disjoint sites.
pub fn anneal(
    netlist: &Netlist,
    placement: &mut Placement,
    cfg: &AnnealConfig,
    movable: Option<&[InstId]>,
    region: Option<Region>,
) -> AnnealStats {
    anneal_on(&AnnealIndex::build(netlist), placement, cfg, movable, region)
}

/// [`anneal`] on an index the caller already holds.
pub(crate) fn anneal_on(
    index: &AnnealIndex,
    placement: &mut Placement,
    cfg: &AnnealConfig,
    movable: Option<&[InstId]>,
    region: Option<Region>,
) -> AnnealStats {
    let mut net_cost = index.pins.net_costs(placement);
    let hpwl_before: f64 = net_cost.iter().sum();
    let accepted = anneal_moves(index, placement, &mut net_cost, cfg, movable, region);
    let cells = movable.map_or(index.num_instances(), <[InstId]>::len);
    AnnealStats {
        hpwl_before,
        hpwl_after: net_cost.iter().sum(),
        proposed: cells * cfg.moves_per_cell,
        accepted,
    }
}

/// The annealing loop, returning the number of accepted moves.
///
/// `net_cost[n]` must hold net `n`'s HPWL under `placement` on entry
/// ([`NetPins::net_costs`]) and does again on return: a move's cost before
/// is the sum of the cached costs of the nets it touches, its cost after is
/// the sum of the same nets recomputed in the same order, and an accepted
/// move writes the recomputed costs back. A cached cost is bit-for-bit what
/// recomputing it would give, so the accept sequence is the one an annealer
/// evaluating every touched net twice per move produces.
pub(crate) fn anneal_moves(
    index: &AnnealIndex,
    placement: &mut Placement,
    net_cost: &mut [f64],
    cfg: &AnnealConfig,
    movable: Option<&[InstId]>,
    region: Option<Region>,
) -> usize {
    let die = placement.die;
    let num_instances = index.num_instances();
    let all: Vec<InstId>;
    let cells: &[InstId] = match movable {
        Some(m) => m,
        None => {
            all = (0..num_instances).map(InstId::from_index).collect();
            &all
        }
    };
    if cells.is_empty() {
        return 0;
    }
    let movable_mask: Option<Vec<bool>> = movable.map(|m| {
        let mut v = vec![false; num_instances];
        for id in m {
            v[id.index()] = true;
        }
        v
    });
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Occupancy: site slot -> instance.
    let mut occupant: Vec<Option<InstId>> = vec![None; die.num_sites()];
    let slot_of = |die: &Die, p: crate::floorplan::Point| -> usize {
        let (c, r) = die.snap(p);
        r * die.cols + c
    };
    for i in 0..num_instances {
        let id = InstId::from_index(i);
        occupant[slot_of(&die, placement.position(id))] = Some(id);
    }

    let total_moves = cells.len() * cfg.moves_per_cell;
    let mut t = T0_FRACTION * (die.width_um + die.height_um);
    let t_final = t * 1e-3;
    let alpha = if total_moves > 0 {
        (t_final / t).powf(1.0 / total_moves as f64)
    } else {
        1.0
    };

    let reg = region.unwrap_or(Region::full(&die));
    assert!(reg.c1 > reg.c0 && reg.r1 > reg.r0, "region must be non-empty");
    // Nets the current move touches and their recomputed costs, reused
    // across moves.
    let mut touched: Vec<u32> = Vec::new();
    let mut recomputed: Vec<f64> = Vec::new();
    let mut accepted = 0usize;
    for _ in 0..total_moves {
        let a = cells[rng.gen_range(0..cells.len())];
        let target_slot = {
            let c = rng.gen_range(reg.c0..reg.c1);
            let r = rng.gen_range(reg.r0..reg.r1);
            r * die.cols + c
        };
        let b = occupant[target_slot];
        if b == Some(a) {
            continue;
        }
        // Swaps must stay within the movable set.
        if let (Some(b), Some(mask)) = (b, &movable_mask) {
            if !mask[b.index()] {
                continue;
            }
        }
        let pa = placement.position(a);
        let (tc, tr) = (target_slot % die.cols, target_slot / die.cols);
        let pt = die.site_center(tc, tr);

        // Nets affected: a's, then b's that a does not share.
        touched.clear();
        touched.extend_from_slice(index.nets_of(a));
        if let Some(b) = b {
            for &net in index.nets_of(b) {
                if !touched.contains(&net) {
                    touched.push(net);
                }
            }
        }
        let before: f64 = touched.iter().map(|&net| net_cost[net as usize]).sum();
        placement.set_position(a, pt);
        if let Some(b) = b {
            placement.set_position(b, pa);
        }
        recomputed.clear();
        recomputed
            .extend(touched.iter().map(|&net| index.pins.net_hpwl(placement, net as usize)));
        let after: f64 = recomputed.iter().sum();
        let delta = after - before;
        let accept = delta < 0.0 || (t > 0.0 && rng.gen::<f64>() < (-delta / t).exp());
        if accept {
            accepted += 1;
            let a_slot = slot_of(&die, pa);
            occupant[a_slot] = b;
            occupant[target_slot] = Some(a);
            for (&net, &cost) in touched.iter().zip(&recomputed) {
                net_cost[net as usize] = cost;
            }
        } else {
            placement.set_position(a, pa);
            if let Some(b) = b {
                placement.set_position(b, pt);
            }
        }
        t *= alpha;
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{place_global, GlobalConfig};
    use crate::pins::oracle;
    use eda_netlist::{generate, NetId};
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The annealer as it was before the index: per-instance `Vec` adjacency
    /// rebuilt per call, a cloned touched-net list per move, every touched
    /// net's HPWL walked out of the netlist twice per move. The reference
    /// for [`anneal`]'s accept sequence.
    fn anneal_by_walking(
        netlist: &Netlist,
        placement: &mut Placement,
        cfg: &AnnealConfig,
        movable: Option<&[InstId]>,
        region: Option<Region>,
    ) -> AnnealStats {
        let die = placement.die;
        let all: Vec<InstId> = (0..netlist.num_instances()).map(InstId::from_index).collect();
        let cells: &[InstId] = movable.unwrap_or(&all);
        if cells.is_empty() {
            let h = oracle::total_hpwl(placement, netlist);
            return AnnealStats { hpwl_before: h, hpwl_after: h, proposed: 0, accepted: 0 };
        }
        let mut adj: Vec<Vec<NetId>> = vec![Vec::new(); netlist.num_instances()];
        for (net_id, net) in netlist.nets() {
            if let Some(eda_netlist::NetDriver::Instance(d)) = net.driver() {
                adj[d.index()].push(net_id);
            }
            for &(s, _) in net.sinks() {
                if !adj[s.index()].contains(&net_id) {
                    adj[s.index()].push(net_id);
                }
            }
        }
        let movable_mask: Option<Vec<bool>> = movable.map(|m| {
            let mut v = vec![false; netlist.num_instances()];
            for id in m {
                v[id.index()] = true;
            }
            v
        });
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut occupant: Vec<Option<InstId>> = vec![None; die.num_sites()];
        let slot_of = |die: &Die, p: crate::floorplan::Point| -> usize {
            let (c, r) = die.snap(p);
            r * die.cols + c
        };
        for i in 0..netlist.num_instances() {
            let id = InstId::from_index(i);
            occupant[slot_of(&die, placement.position(id))] = Some(id);
        }
        let hpwl_before = oracle::total_hpwl(placement, netlist);
        let total_moves = cells.len() * cfg.moves_per_cell;
        let mut t = T0_FRACTION * (die.width_um + die.height_um);
        let t_final = t * 1e-3;
        let alpha =
            if total_moves > 0 { (t_final / t).powf(1.0 / total_moves as f64) } else { 1.0 };
        let reg = region.unwrap_or(Region::full(&die));
        let mut accepted = 0usize;
        for _ in 0..total_moves {
            let a = cells[rng.gen_range(0..cells.len())];
            let target_slot = {
                let c = rng.gen_range(reg.c0..reg.c1);
                let r = rng.gen_range(reg.r0..reg.r1);
                r * die.cols + c
            };
            let b = occupant[target_slot];
            if b == Some(a) {
                continue;
            }
            if let (Some(b), Some(mask)) = (b, &movable_mask) {
                if !mask[b.index()] {
                    continue;
                }
            }
            let pa = placement.position(a);
            let pt = die.site_center(target_slot % die.cols, target_slot / die.cols);
            let mut nets: Vec<NetId> = adj[a.index()].clone();
            if let Some(b) = b {
                for &nid in &adj[b.index()] {
                    if !nets.contains(&nid) {
                        nets.push(nid);
                    }
                }
            }
            let before: f64 =
                nets.iter().map(|&nid| oracle::net_hpwl(placement, netlist, nid)).sum();
            placement.set_position(a, pt);
            if let Some(b) = b {
                placement.set_position(b, pa);
            }
            let after: f64 =
                nets.iter().map(|&nid| oracle::net_hpwl(placement, netlist, nid)).sum();
            let delta = after - before;
            let accept = delta < 0.0 || (t > 0.0 && rng.gen::<f64>() < (-delta / t).exp());
            if accept {
                accepted += 1;
                occupant[slot_of(&die, pa)] = b;
                occupant[target_slot] = Some(a);
            } else {
                placement.set_position(a, pa);
                if let Some(b) = b {
                    placement.set_position(b, pt);
                }
            }
            t *= alpha;
        }
        AnnealStats {
            hpwl_before,
            hpwl_after: oracle::total_hpwl(placement, netlist),
            proposed: total_moves,
            accepted,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Same accept sequence as the netlist-walking annealer — whole die,
        /// and a restricted `movable` set confined to a `Region` (the shape
        /// of a stripe job) — on a design with PI-driven nets, PO pins and a
        /// clock net that touches every flop.
        #[test]
        fn anneal_matches_the_netlist_walking_annealer(seed in any::<u64>(), restricted in any::<bool>()) {
            let n = generate::switch_fabric(2, 3).unwrap();
            let die = Die::for_netlist(&n, 0.7);
            let start = place_global(&n, die, &GlobalConfig { iterations: 3, seed });
            let cfg = AnnealConfig { moves_per_cell: 12, seed: seed ^ 0x5eed };
            let region = Region { c0: 0, c1: die.cols.div_ceil(2), r0: 0, r1: die.rows };
            let cells: Vec<InstId> = (0..n.num_instances())
                .map(InstId::from_index)
                .filter(|&id| {
                    let (c, r) = die.snap(start.position(id));
                    region.contains(c, r)
                })
                .collect();
            let (movable, region) =
                if restricted { (Some(cells.as_slice()), Some(region)) } else { (None, None) };
            let (mut fast, mut slow) = (start.clone(), start);
            let got = anneal(&n, &mut fast, &cfg, movable, region);
            let want = anneal_by_walking(&n, &mut slow, &cfg, movable, region);
            prop_assert_eq!(got.accepted, want.accepted);
            prop_assert_eq!(got.proposed, want.proposed);
            prop_assert_eq!(got.hpwl_before.to_bits(), want.hpwl_before.to_bits());
            prop_assert_eq!(got.hpwl_after.to_bits(), want.hpwl_after.to_bits());
            prop_assert!(got.accepted > 0);
            for i in 0..n.num_instances() {
                let (a, b) = (fast.position(InstId::from_index(i)), slow.position(InstId::from_index(i)));
                prop_assert_eq!((a.x.to_bits(), a.y.to_bits()), (b.x.to_bits(), b.y.to_bits()));
            }
        }
    }

    #[test]
    fn anneal_improves_hpwl() {
        let n = generate::random_logic(generate::RandomLogicConfig {
            gates: 300,
            seed: 7,
            ..Default::default()
        })
        .unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let mut p = place_global(&n, die, &GlobalConfig { iterations: 2, seed: 7 });
        let stats = anneal(&n, &mut p, &AnnealConfig::default(), None, None);
        assert!(
            stats.hpwl_after < stats.hpwl_before,
            "annealing must improve: {} -> {}",
            stats.hpwl_before,
            stats.hpwl_after
        );
        assert!(stats.accepted > 0);
        assert!((p.total_hpwl(&n) - stats.hpwl_after).abs() < 1e-6);
    }

    #[test]
    fn anneal_keeps_placement_legal() {
        let n = generate::parity_tree(64).unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let mut p = place_global(&n, die, &GlobalConfig::default());
        anneal(&n, &mut p, &AnnealConfig { moves_per_cell: 30, ..Default::default() }, None, None);
        let mut seen = HashSet::new();
        for i in 0..n.num_instances() {
            let pos = p.position(InstId::from_index(i));
            let key = ((pos.x * 1000.0) as i64, (pos.y * 1000.0) as i64);
            assert!(seen.insert(key), "overlap at {pos:?}");
        }
    }

    #[test]
    fn restricted_anneal_moves_only_movable() {
        let n = generate::parity_tree(32).unwrap();
        let die = Die::for_netlist(&n, 0.6);
        let mut p = place_global(&n, die, &GlobalConfig::default());
        let frozen: Vec<_> = (0..n.num_instances() / 2).map(InstId::from_index).collect();
        let movable: Vec<_> =
            (n.num_instances() / 2..n.num_instances()).map(InstId::from_index).collect();
        let before: Vec<_> = frozen.iter().map(|&i| p.position(i)).collect();
        anneal(&n, &mut p, &AnnealConfig::default(), Some(&movable), None);
        for (i, &id) in frozen.iter().enumerate() {
            assert_eq!(p.position(id), before[i], "frozen cell moved");
        }
    }

    #[test]
    fn deterministic_with_seed() {
        let n = generate::parity_tree(32).unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let mut p1 = place_global(&n, die, &GlobalConfig::default());
        let mut p2 = place_global(&n, die, &GlobalConfig::default());
        let s1 = anneal(&n, &mut p1, &AnnealConfig::default(), None, None);
        let s2 = anneal(&n, &mut p2, &AnnealConfig::default(), None, None);
        assert_eq!(s1.hpwl_after, s2.hpwl_after);
    }
}
