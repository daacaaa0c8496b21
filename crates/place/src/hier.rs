//! Hierarchical (per-block) placement, for the flat-vs-hierarchical
//! comparison of claim C7.
//!
//! Each hierarchy block gets a rectangular region of the die; its cells may
//! only move inside that region. Nets that cross block boundaries are
//! reported so the caller can charge them the mandatory boundary buffering a
//! block-based flow inserts (feedthrough + port anchor).

use crate::anneal::{anneal_moves, AnnealConfig, AnnealIndex, Region};
use crate::floorplan::Die;
use crate::global::{place_global_on, FreeSlots, GlobalConfig};
use crate::placement::Placement;
use eda_netlist::{InstId, NetDriver, Netlist};

/// Result of hierarchical placement.
#[derive(Debug, Clone, PartialEq)]
pub struct HierOutcome {
    /// The placement (cells confined to block regions).
    pub placement: Placement,
    /// Net indices that cross a block boundary.
    pub crossing_nets: Vec<usize>,
    /// Final HPWL.
    pub hpwl: f64,
}

/// Places a block-labeled netlist hierarchically.
///
/// Blocks are laid out on a near-square grid of equal regions; unlabeled
/// instances share the last region. Cells are annealed within their region
/// only.
///
/// # Panics
///
/// Panics if the netlist has no blocks.
pub fn place_hierarchical(netlist: &Netlist, die: Die, seed: u64) -> HierOutcome {
    let num_blocks = netlist.block_names().len();
    assert!(num_blocks > 0, "hierarchical placement needs block labels");
    let grid = (num_blocks as f64).sqrt().ceil() as usize;
    let rows_of_blocks = num_blocks.div_ceil(grid);

    let region_of = |blk: usize| -> Region {
        let gx = blk % grid;
        let gy = blk / grid;
        let c0 = gx * die.cols / grid;
        let c1 = ((gx + 1) * die.cols / grid).max(c0 + 1);
        let r0 = gy * die.rows / rows_of_blocks;
        let r1 = ((gy + 1) * die.rows / rows_of_blocks).max(r0 + 1);
        Region { c0, c1, r0, r1 }
    };

    // Start from a global placement, then pull every cell into its region.
    let index = AnnealIndex::build(netlist);
    let mut placement =
        place_global_on(&index.pins, netlist, die, &GlobalConfig { iterations: 4, seed });
    for (id, inst) in netlist.instances() {
        let blk = inst.block().unwrap_or((num_blocks - 1) as u32) as usize;
        let reg = region_of(blk);
        let p = placement.position(id);
        let (c, r) = die.snap(p);
        if !reg.contains(c, r) {
            let cc = c.clamp(reg.c0, reg.c1 - 1);
            let rr = r.clamp(reg.r0, reg.r1 - 1);
            placement.set_position(id, die.site_center(cc, rr));
        }
    }
    legalize_within_regions(&mut placement, netlist, &region_of, num_blocks);

    // Per-block annealing. The blocks run one after another on the same
    // placement, so one per-net cost cache carries through all of them.
    let mut net_cost = index.pins.net_costs(&placement);
    for blk in 0..num_blocks {
        let cells: Vec<InstId> = netlist
            .instances()
            .filter(|(_, inst)| inst.block().unwrap_or((num_blocks - 1) as u32) as usize == blk)
            .map(|(id, _)| id)
            .collect();
        if cells.is_empty() {
            continue;
        }
        anneal_moves(
            &index,
            &mut placement,
            &mut net_cost,
            &AnnealConfig { moves_per_cell: 40, seed: seed ^ (blk as u64 + 1), ..Default::default() },
            Some(&cells),
            Some(region_of(blk)),
        );
    }

    // Crossing nets: nets whose pins span more than one block.
    let mut crossing = Vec::new();
    for (net_id, net) in netlist.nets() {
        let mut blocks_seen: Option<u32> = None;
        let mut crosses = false;
        let mut visit = |inst: InstId| {
            let blk = netlist.instance(inst).block().unwrap_or((num_blocks - 1) as u32);
            match blocks_seen {
                None => blocks_seen = Some(blk),
                Some(b) if b != blk => crosses = true,
                _ => {}
            }
        };
        if let Some(NetDriver::Instance(d)) = net.driver() {
            visit(d);
        }
        for &(s, _) in net.sinks() {
            visit(s);
        }
        if crosses {
            crossing.push(net_id.index());
        }
    }

    HierOutcome { hpwl: net_cost.iter().sum(), placement, crossing_nets: crossing }
}

/// Legalizes cells onto free sites of their own region.
fn legalize_within_regions(
    placement: &mut Placement,
    netlist: &Netlist,
    region_of: &dyn Fn(usize) -> Region,
    num_blocks: usize,
) {
    let die = placement.die;
    let mut free = FreeSlots::new(die.num_sites());
    for (id, inst) in netlist.instances() {
        let blk = inst.block().unwrap_or((num_blocks - 1) as u32) as usize;
        let reg = region_of(blk);
        let (c, r) = die.snap(placement.position(id));
        let c = c.clamp(reg.c0, reg.c1 - 1);
        let r = r.clamp(reg.r0, reg.r1 - 1);
        // Row-major through the region from the preferred site, wrapping:
        // the rest of its row, each following row, then the start of its
        // row. Region overfull: fall back to any free site (rare; the
        // region sizing assumes roughly balanced blocks).
        let height = reg.r1 - reg.r0;
        let slot = (0..=height)
            .find_map(|k| {
                let row = reg.r0 + (r - reg.r0 + k) % height;
                let lo = if k == 0 { c } else { reg.c0 };
                let hi = if k == height { c } else { reg.c1 };
                free.take_in(row * die.cols + lo, row * die.cols + hi)
            })
            .or_else(|| {
                let (cc, rr) = die.snap(placement.position(id));
                free.take_from(rr * die.cols + cc)
            });
        if let Some(slot) = slot {
            placement.set_position(id, die.site_center(slot % die.cols, slot / die.cols));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Point;
    use eda_netlist::generate;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The region legaliser as it was before [`FreeSlots`]: probe the region
    /// site by site from the preferred one, then the whole die.
    fn legalize_within_regions_by_probing(
        placement: &mut Placement,
        netlist: &Netlist,
        region_of: &dyn Fn(usize) -> Region,
        num_blocks: usize,
    ) {
        let die = placement.die;
        let mut occupied = vec![false; die.num_sites()];
        for (id, inst) in netlist.instances() {
            let blk = inst.block().unwrap_or((num_blocks - 1) as u32) as usize;
            let reg = region_of(blk);
            let (c, r) = die.snap(placement.position(id));
            let c = c.clamp(reg.c0, reg.c1 - 1);
            let r = r.clamp(reg.r0, reg.r1 - 1);
            let width = reg.c1 - reg.c0;
            let height = reg.r1 - reg.r0;
            let start = (r - reg.r0) * width + (c - reg.c0);
            let total = width * height;
            let mut placed = false;
            for k in 0..total {
                let idx = (start + k) % total;
                let col = reg.c0 + idx % width;
                let row = reg.r0 + idx / width;
                let slot = row * die.cols + col;
                if !occupied[slot] {
                    occupied[slot] = true;
                    placement.set_position(id, die.site_center(col, row));
                    placed = true;
                    break;
                }
            }
            if !placed {
                let (cc, rr) = die.snap(placement.position(id));
                let start = rr * die.cols + cc;
                for k in 0..die.num_sites() {
                    let slot = (start + k) % die.num_sites();
                    if !occupied[slot] {
                        occupied[slot] = true;
                        placement
                            .set_position(id, die.site_center(slot % die.cols, slot / die.cols));
                        break;
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random rectangles as block regions — overlapping, some far too
        /// small for their block (the die-wide fallback), on dies down to
        /// fewer sites than cells — and cells piled onto few sites.
        #[test]
        fn region_legalizer_matches_the_probing_one(seed in any::<u64>(), cols in 3usize..16, rows in 3usize..16) {
            let n = generate::hierarchical_design(4, 30, 5).unwrap();
            let num_blocks = n.block_names().len();
            let site = 2.0;
            let die = Die {
                width_um: cols as f64 * site,
                height_um: rows as f64 * site,
                site_um: site,
                cols,
                rows,
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let regions: Vec<Region> = (0..num_blocks)
                .map(|_| {
                    let c0 = rng.gen_range(0..cols);
                    let r0 = rng.gen_range(0..rows);
                    Region {
                        c0,
                        c1: rng.gen_range(c0 + 1..=cols),
                        r0,
                        r1: rng.gen_range(r0 + 1..=rows),
                    }
                })
                .collect();
            let region_of = |blk: usize| regions[blk];
            let mut fast = Placement::new(&n, die);
            for (id, _) in n.instances() {
                let col = rng.gen_range(0..cols.min(4));
                let row = rng.gen_range(0..rows.min(4));
                fast.set_position(id, Point::new((col as f64 + 0.3) * site, (row as f64 + 0.6) * site));
            }
            let mut slow = fast.clone();
            legalize_within_regions(&mut fast, &n, &region_of, num_blocks);
            legalize_within_regions_by_probing(&mut slow, &n, &region_of, num_blocks);
            for (id, _) in n.instances() {
                let (a, b) = (fast.position(id), slow.position(id));
                prop_assert_eq!((a.x.to_bits(), a.y.to_bits()), (b.x.to_bits(), b.y.to_bits()));
            }
        }
    }

    #[test]
    fn cells_stay_in_their_regions() {
        let n = generate::hierarchical_design(4, 80, 5).unwrap();
        let die = Die::for_netlist(&n, 0.5);
        let out = place_hierarchical(&n, die, 3);
        let grid = 2usize;
        for (id, inst) in n.instances() {
            let blk = inst.block().unwrap() as usize;
            let gx = blk % grid;
            let gy = blk / grid;
            let p = out.placement.position(id);
            let (c, r) = die.snap(p);
            let c0 = gx * die.cols / grid;
            let c1 = (gx + 1) * die.cols / grid;
            let r0 = gy * die.rows / 2;
            let r1 = (gy + 1) * die.rows / 2;
            assert!(
                c >= c0 && c < c1.max(c0 + 1) && r >= r0 && r < r1.max(r0 + 1),
                "cell of block {blk} at site ({c},{r}) outside region"
            );
        }
    }

    #[test]
    fn crossing_nets_detected() {
        let n = generate::hierarchical_design(4, 80, 5).unwrap();
        let die = Die::for_netlist(&n, 0.5);
        let out = place_hierarchical(&n, die, 3);
        assert!(
            !out.crossing_nets.is_empty(),
            "shared-bus hierarchical design must have crossing nets"
        );
    }

    #[test]
    fn hier_needs_more_buffers_than_flat() {
        // The panel's point: flat implementation saves area/power through
        // *less buffering* — block-based flows must buffer every
        // boundary-crossing net (feedthrough + port anchor), on top of any
        // length-driven repeaters.
        use crate::anneal::anneal;
        use crate::buffer::plan_buffers;
        let n = generate::hierarchical_design(4, 100, 8).unwrap();
        let die = Die::for_netlist(&n, 0.5);
        let hier = place_hierarchical(&n, die, 3);
        // The flat flow has no block constraints; starting from the same
        // physical state and refining without boundaries can only help.
        let mut flat = hier.placement.clone();
        anneal(&n, &mut flat, &AnnealConfig::default(), None, None);
        let max_len = die.width_um / 4.0;
        let flat_plan = plan_buffers(&n, &flat, max_len, &[]);
        let forced: Vec<(usize, u32)> =
            hier.crossing_nets.iter().map(|&i| (i, 2)).collect();
        let hier_plan = plan_buffers(&n, &hier.placement, max_len, &forced);
        assert!(
            hier_plan.total > flat_plan.total,
            "hier {} buffers should exceed flat {}",
            hier_plan.total,
            flat_plan.total
        );
        assert!(hier_plan.added_area_um2 > flat_plan.added_area_um2);
    }

    #[test]
    #[should_panic(expected = "block labels")]
    fn unlabeled_netlist_panics() {
        let n = generate::parity_tree(8).unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let _ = place_hierarchical(&n, die, 1);
    }
}
