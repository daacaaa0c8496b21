//! Multilevel placement for the scale tier: cluster → serpentine seed → refine.
//!
//! Flat force-directed placement iterates over every net touching every
//! instance, which at 10⁵–10⁶ instances is both slow and memory-hungry. The
//! multilevel pass first contracts the netlist into hierarchy-guided
//! clusters of bounded size, lays the clusters along a space-filling curve,
//! expands each cluster into a compact block around its center, legalizes
//! once and polishes with a short serial anneal. Iteration order is fixed by
//! instance index and the anneal is seeded, so the result is a pure function
//! of `(netlist, die, config)` — the flow's bit-identical-at-any-thread-count
//! contract holds trivially.

use crate::anneal::{anneal_on, AnnealConfig, AnnealIndex, AnnealStats};
use crate::floorplan::{Die, Point};
use crate::global::legalize;
use crate::placement::Placement;
use eda_netlist::{InstId, Netlist};

/// Target instances per cluster (clusters never exceed this).
pub const CLUSTER_SIZE: usize = 64;

/// Configuration for [`place_multilevel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultilevelConfig {
    /// Annealing moves per cell in the final refinement (0 skips it).
    pub refine_moves_per_cell: usize,
    /// RNG seed for the refinement anneal, the pass's only random step.
    pub seed: u64,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig { refine_moves_per_cell: 4, seed: 1 }
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

/// Places a netlist by clustering, a serpentine cluster seed, expansion, and
/// a short refinement anneal. Deterministic for a fixed `(netlist, die, cfg)`.
///
/// # Panics
///
/// Panics if the netlist has no instances.
pub fn place_multilevel(
    netlist: &Netlist,
    die: Die,
    cfg: &MultilevelConfig,
) -> MultilevelOutcome {
    let n = netlist.num_instances();
    assert!(n > 0, "cannot place an empty netlist");

    // --- Level 1: hierarchy-label clustering. -----------------------------
    // Instances sharing a hierarchy block label are pooled into the same
    // cluster (chunked at [`CLUSTER_SIZE`]) regardless of index position, so
    // a block's flops rejoin its logic cones even when the mapper emitted
    // them far apart. Unlabelled instances fall back to index chunking,
    // which still captures emission-order locality. Cluster order is
    // first-appearance order, a pure function of the netlist.
    // (Connectivity BFS was tried here and loses: it greedily leaks across
    // block seams and shreds the hierarchy into ragged fragments.)
    let mut clusters: Vec<Vec<InstId>> = Vec::new();
    let mut open: std::collections::HashMap<Option<u32>, usize> = std::collections::HashMap::new();
    for i in 0..n {
        let b = netlist.instance(InstId::from_index(i)).block();
        let ci = match open.get(&b) {
            Some(&c) if clusters[c].len() < CLUSTER_SIZE => c,
            _ => {
                clusters.push(Vec::new());
                open.insert(b, clusters.len() - 1);
                clusters.len() - 1
            }
        };
        clusters[ci].push(InstId::from_index(i));
    }
    let k = clusters.len();

    // --- Level 2: serpentine seed, each cluster expanded around its spot. -
    // Clusters are laid along a boustrophedon curve in index order, so
    // hierarchy neighbours start as geometric neighbours; each cluster's
    // members fill a compact block around its center. Nothing improves the
    // seed before legalization: centroid-plus-spreading sweeps scored on the
    // expanded, legalized HPWL never beat it on a scale-preset flow.
    let side = (k as f64).sqrt().ceil() as usize;
    let mut placement = Placement::new(netlist, die);
    for (c, members) in clusters.iter().enumerate() {
        let row = c / side;
        let col = if row.is_multiple_of(2) { c % side } else { side - 1 - c % side };
        let center = Point::new(
            (col as f64 + 0.5) / side as f64 * die.width_um,
            (row as f64 + 0.5) / side as f64 * die.height_um,
        );
        let block_side = (members.len() as f64).sqrt().ceil().max(1.0) as usize;
        let half = block_side as f64 / 2.0;
        for (j, &id) in members.iter().enumerate() {
            let dx = ((j % block_side) as f64 + 0.5 - half) * die.site_um;
            let dy = ((j / block_side) as f64 + 0.5 - half) * die.site_um;
            let p = Point::new(
                (center.x + dx).clamp(0.0, die.width_um),
                (center.y + dy).clamp(0.0, die.height_um),
            );
            placement.set_position(id, p);
        }
    }
    legalize(&mut placement, netlist);
    let index = AnnealIndex::build(netlist);
    let hpwl_expanded = index.pins.total_hpwl(&placement);

    // --- Refinement: short serial anneal over everything. -----------------
    let refine = if cfg.refine_moves_per_cell > 0 {
        let acfg = AnnealConfig { moves_per_cell: cfg.refine_moves_per_cell, seed: cfg.seed };
        anneal_on(&index, &mut placement, &acfg, None, None)
    } else {
        AnnealStats { hpwl_before: hpwl_expanded, hpwl_after: hpwl_expanded, proposed: 0, accepted: 0 }
    };

    MultilevelOutcome { placement, clusters: k, hpwl_expanded, refine }
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
        // One tile below the cluster size, then meshes of many clusters.
        for (side, tile_gates) in [(1, 20), (3, 120), (4, 200)] {
            let n = generate::mesh_fabric(side, side, tile_gates, 6, 7).unwrap();
            let die = Die::for_netlist(&n, 0.7);
            let ml = place_multilevel(&n, die, &MultilevelConfig::default());
            assert!(ml.clusters >= n.num_instances().div_ceil(CLUSTER_SIZE), "{side}x{side}");
            assert!(ml.clusters <= n.num_instances(), "{side}x{side}");
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
