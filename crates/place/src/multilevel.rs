//! Multilevel placement for the scale tier: cluster → coarse-place → refine.
//!
//! Flat force-directed placement iterates over every net touching every
//! instance, which at 10⁵–10⁶ instances is both slow and memory-hungry. The
//! multilevel pass first contracts the netlist into hierarchy-guided
//! clusters of bounded size, seeds the much smaller cluster graph along a
//! space-filling curve and improves it with centroid-plus-spreading sweeps,
//! then expands each cluster into a compact block around its center and
//! polishes with a short serial anneal. Every
//! step is seeded and iteration order is fixed by instance/net index, so the
//! result is a pure function of `(netlist, die, config)` — the flow's
//! bit-identical-at-any-thread-count contract holds trivially.

use crate::anneal::{anneal_on, AnnealConfig, AnnealIndex, AnnealStats};
use crate::floorplan::{Die, Point};
use crate::global::legalize;
use crate::placement::Placement;
use eda_netlist::{InstId, NetDriver, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Nets wider than this are ignored while clustering and coarse-placing:
/// clock spines and other high-fanout trees say nothing about locality and
/// would glue unrelated logic into one giant cluster.
const MAX_CLUSTER_NET_FANOUT: usize = 48;

/// Configuration for [`place_multilevel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultilevelConfig {
    /// Target instances per cluster (clusters never exceed this).
    pub cluster_size: usize,
    /// Centroid/spreading iterations on the coarse cluster graph.
    pub coarse_iterations: usize,
    /// Annealing moves per cell in the final refinement (0 skips it).
    pub refine_moves_per_cell: usize,
    /// RNG seed for the coarse scatter/spread and the refinement anneal.
    pub seed: u64,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            cluster_size: 64,
            coarse_iterations: 8,
            refine_moves_per_cell: 4,
            seed: 1,
        }
    }
}

/// The result of a multilevel placement.
#[derive(Debug, Clone)]
pub struct MultilevelOutcome {
    /// The legal placement.
    pub placement: Placement,
    /// Clusters the netlist contracted into.
    pub clusters: usize,
    /// Total HPWL after expansion/legalization, before refinement, µm.
    pub hpwl_expanded: f64,
    /// Refinement statistics (zero-move stats when refinement is skipped).
    pub refine: AnnealStats,
}

/// Places a netlist by clustering, coarse placement, expansion, and a short
/// refinement anneal. Deterministic for a fixed `(netlist, die, cfg)`.
///
/// # Panics
///
/// Panics if `cfg.cluster_size` is zero or the netlist has no instances.
pub fn place_multilevel(
    netlist: &Netlist,
    die: Die,
    cfg: &MultilevelConfig,
) -> MultilevelOutcome {
    assert!(cfg.cluster_size > 0, "cluster_size must be positive");
    let n = netlist.num_instances();
    assert!(n > 0, "cannot place an empty netlist");

    // --- Level 1: hierarchy-label clustering. -----------------------------
    // Instances sharing a hierarchy block label are pooled into the same
    // cluster (chunked at `cluster_size`) regardless of index position, so
    // a block's flops rejoin its logic cones even when the mapper emitted
    // them far apart. Unlabelled instances fall back to index chunking,
    // which still captures emission-order locality. Cluster order is
    // first-appearance order, a pure function of the netlist.
    // (Connectivity BFS was tried here and loses: it greedily leaks across
    // block seams and shreds the hierarchy into ragged fragments.)
    let mut cluster_of: Vec<u32> = vec![0; n];
    let mut clusters: Vec<Vec<InstId>> = Vec::new();
    let mut open: std::collections::HashMap<Option<u32>, usize> = std::collections::HashMap::new();
    for (i, slot) in cluster_of.iter_mut().enumerate() {
        let b = netlist.instance(InstId::from_index(i)).block();
        let ci = match open.get(&b) {
            Some(&c) if clusters[c].len() < cfg.cluster_size => c,
            _ => {
                clusters.push(Vec::new());
                open.insert(b, clusters.len() - 1);
                clusters.len() - 1
            }
        };
        *slot = ci as u32;
        clusters[ci].push(InstId::from_index(i));
    }
    let k = clusters.len();

    // Coarse nets: each netlist net contracted to the distinct clusters it
    // touches (single-cluster nets vanish — that is the point of level 1).
    let mut coarse_nets: Vec<Vec<u32>> = Vec::new();
    for (_, net) in netlist.nets() {
        if net.fanout() == 0 || net.fanout() > MAX_CLUSTER_NET_FANOUT {
            continue;
        }
        let mut cs: Vec<u32> = Vec::new();
        if let Some(NetDriver::Instance(d)) = net.driver() {
            cs.push(cluster_of[d.index()]);
        }
        for &(s, _) in net.sinks() {
            cs.push(cluster_of[s.index()]);
        }
        cs.sort_unstable();
        cs.dedup();
        if cs.len() >= 2 {
            coarse_nets.push(cs);
        }
    }

    // --- Level 2: serpentine seed, then centroid + weighted spreading. ----
    // The seed lays clusters along a boustrophedon curve in index order, so
    // hierarchy neighbours start as geometric neighbours. Each centroid +
    // spreading sweep is then scored by the real objective — the HPWL of
    // the expanded, legalized placement it induces — and only a sweep that
    // improves on the best seen so far is kept. A coarse-only proxy is not
    // good enough here: centroids happily pile clusters on top of each
    // other, which shrinks cluster-graph spans while the legalizer scatters
    // the physical overlap into worse wirelength.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let side = (k as f64).sqrt().ceil() as usize;
    let mut pos: Vec<Point> = (0..k)
        .map(|c| {
            let row = c / side;
            let col = if row.is_multiple_of(2) { c % side } else { side - 1 - c % side };
            Point::new(
                (col as f64 + 0.5) / side as f64 * die.width_um,
                (row as f64 + 0.5) / side as f64 * die.height_um,
            )
        })
        .collect();
    let weight: Vec<usize> = clusters.iter().map(Vec::len).collect();

    // --- Level 3: expand members into a block around each center. ---------
    let expand = |placement: &mut Placement, pos: &[Point]| {
        for (c, members) in clusters.iter().enumerate() {
            let block_side = (members.len() as f64).sqrt().ceil().max(1.0) as usize;
            let half = block_side as f64 / 2.0;
            for (j, &id) in members.iter().enumerate() {
                let dx = ((j % block_side) as f64 + 0.5 - half) * die.site_um;
                let dy = ((j / block_side) as f64 + 0.5 - half) * die.site_um;
                let p = Point::new(
                    (pos[c].x + dx).clamp(0.0, die.width_um),
                    (pos[c].y + dy).clamp(0.0, die.height_um),
                );
                placement.set_position(id, p);
            }
        }
        legalize(placement, netlist);
    };
    // One index for the stage: every sweep's score and the refinement.
    let index = AnnealIndex::build(netlist);
    let mut placement = Placement::new(netlist, die);
    expand(&mut placement, &pos);
    let mut best_pos = pos.clone();
    let mut best_cost = index.pins.total_hpwl(&placement);
    for _ in 0..cfg.coarse_iterations {
        let mut sum = vec![(0.0f64, 0.0f64, 0usize); k];
        for cs in &coarse_nets {
            let cx: f64 = cs.iter().map(|&c| pos[c as usize].x).sum::<f64>() / cs.len() as f64;
            let cy: f64 = cs.iter().map(|&c| pos[c as usize].y).sum::<f64>() / cs.len() as f64;
            for &c in cs {
                let s = &mut sum[c as usize];
                s.0 += cx;
                s.1 += cy;
                s.2 += 1;
            }
        }
        for (c, &(sx, sy, m)) in sum.iter().enumerate() {
            if m > 0 {
                pos[c] = Point::new(sx / m as f64, sy / m as f64);
            }
        }
        spread_clusters(&mut pos, &weight, n, die, &mut rng);
        expand(&mut placement, &pos);
        let cost = index.pins.total_hpwl(&placement);
        if cost < best_cost {
            best_cost = cost;
            best_pos = pos.clone();
        }
    }
    expand(&mut placement, &best_pos);

    let hpwl_expanded = best_cost;

    // --- Refinement: short serial anneal over everything. -----------------
    let refine = if cfg.refine_moves_per_cell > 0 {
        let acfg = AnnealConfig {
            moves_per_cell: cfg.refine_moves_per_cell,
            seed: cfg.seed,
            ..Default::default()
        };
        anneal_on(&index, &mut placement, &acfg, None, None)
    } else {
        AnnealStats { hpwl_before: hpwl_expanded, hpwl_after: hpwl_expanded, proposed: 0, accepted: 0 }
    };

    MultilevelOutcome { placement, clusters: k, hpwl_expanded, refine }
}

/// Pushes clusters out of overloaded coarse bins. Capacity is measured in
/// instances (clusters are weighted by member count), overflow evicts the
/// most recently binned clusters first — a pure function of cluster order
/// and the seeded RNG.
fn spread_clusters(
    pos: &mut [Point],
    weight: &[usize],
    total_instances: usize,
    die: Die,
    rng: &mut StdRng,
) {
    let k = pos.len();
    let bins = ((k as f64).sqrt().ceil() as usize).clamp(2, 64);
    let bw = die.width_um / bins as f64;
    let bh = die.height_um / bins as f64;
    let cap = (total_instances as f64 / (bins * bins) as f64).ceil() as usize + 1;
    let mut bin_members: Vec<Vec<usize>> = vec![Vec::new(); bins * bins];
    for (c, p) in pos.iter().enumerate() {
        let bx = ((p.x / bw) as usize).min(bins - 1);
        let by = ((p.y / bh) as usize).min(bins - 1);
        bin_members[by * bins + bx].push(c);
    }
    for (b, members) in bin_members.iter_mut().enumerate() {
        let mut load: usize = members.iter().map(|&c| weight[c]).sum();
        while load > cap && members.len() > 1 {
            let c = members.pop().expect("len > 1");
            load -= weight[c];
            let bx = b % bins;
            let by = b / bins;
            let nx = (bx as i64 + rng.gen_range(-1..=1)).clamp(0, bins as i64 - 1) as f64;
            let ny = (by as i64 + rng.gen_range(-1..=1)).clamp(0, bins as i64 - 1) as f64;
            pos[c] = Point::new((nx + rng.gen::<f64>()) * bw, (ny + rng.gen::<f64>()) * bh);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{place_global, GlobalConfig};
    use eda_netlist::generate;
    use std::collections::HashSet;

    fn mesh() -> Netlist {
        generate::mesh_fabric(3, 3, 120, 6, 7).unwrap()
    }

    #[test]
    fn multilevel_is_deterministic() {
        let n = mesh();
        let die = Die::for_netlist(&n, 0.7);
        let cfg = MultilevelConfig::default();
        let a = place_multilevel(&n, die, &cfg);
        let b = place_multilevel(&n, die, &cfg);
        assert_eq!(a.clusters, b.clusters);
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.refine.hpwl_after, b.refine.hpwl_after);
    }

    #[test]
    fn multilevel_beats_random_scatter() {
        let n = mesh();
        let die = Die::for_netlist(&n, 0.7);
        let scatter = place_global(&n, die, &GlobalConfig { iterations: 0, seed: 9 });
        let ml = place_multilevel(&n, die, &MultilevelConfig::default());
        assert!(
            ml.placement.total_hpwl(&n) < scatter.total_hpwl(&n),
            "multilevel {} must beat scatter {}",
            ml.placement.total_hpwl(&n),
            scatter.total_hpwl(&n)
        );
    }

    #[test]
    fn placement_is_legal_and_inside_die() {
        let n = mesh();
        let die = Die::for_netlist(&n, 0.7);
        let ml = place_multilevel(&n, die, &MultilevelConfig::default());
        let mut seen = HashSet::new();
        for i in 0..n.num_instances() {
            let pos = ml.placement.position(InstId::from_index(i));
            assert!(pos.x >= 0.0 && pos.x <= die.width_um);
            assert!(pos.y >= 0.0 && pos.y <= die.height_um);
            let key = ((pos.x * 1000.0) as i64, (pos.y * 1000.0) as i64);
            assert!(seen.insert(key), "two cells share a site at {pos:?}");
        }
    }

    #[test]
    fn clusters_are_bounded_and_cover_the_netlist() {
        let n = mesh();
        let die = Die::for_netlist(&n, 0.7);
        for cluster_size in [1, 16, 256] {
            let cfg = MultilevelConfig { cluster_size, ..Default::default() };
            let ml = place_multilevel(&n, die, &cfg);
            assert!(ml.clusters >= n.num_instances().div_ceil(cluster_size));
            assert!(ml.clusters <= n.num_instances());
        }
    }

    #[test]
    fn refinement_never_hurts() {
        let n = mesh();
        let die = Die::for_netlist(&n, 0.7);
        let ml = place_multilevel(&n, die, &MultilevelConfig::default());
        assert!(ml.refine.hpwl_after <= ml.refine.hpwl_before);
        assert_eq!(ml.refine.hpwl_before, ml.hpwl_expanded);
    }
}
