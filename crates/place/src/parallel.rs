//! Multi-threaded partitioned placement.
//!
//! Rossi: *"Taking (almost full) the opportunity given by the multiple cores
//! sitting in the farms, engineers can today run a place-and-route job for a
//! 5-6M instance sub-chip with a throughput approaching the 1M instance per
//! day."* This module reproduces the shape of that claim: the die is split
//! into stripes, each stripe's cells are annealed against a snapshot of the
//! rest of the design, and throughput scales with the worker count
//! (claim C9).
//!
//! The stripe **partition** (how many stripes, which cells, which seeds) is
//! set by [`ParallelConfig::stripes`] and never by the thread count, and the
//! stripe dispatch runs through [`eda_par`], so the final placement is
//! bit-identical for any [`ParallelConfig::threads`] value — workers only
//! change how fast the same stripes are annealed.

use crate::anneal::{anneal_moves, AnnealConfig, AnnealIndex, Region};
use crate::floorplan::{Die, Point};
use crate::global::{place_global_on, GlobalConfig};
use crate::placement::Placement;
use eda_netlist::{InstId, Netlist};
use std::time::Instant;

/// Configuration for [`place_parallel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelConfig {
    /// Worker threads (`0` = all available cores). Never affects the result.
    pub threads: usize,
    /// Stripe partitions per pass. This — not `threads` — determines the
    /// refinement result; workers are clamped to the stripe count.
    pub stripes: usize,
    /// Annealing moves per cell within each stripe pass.
    pub moves_per_cell: usize,
    /// Stripe passes (alternating vertical/horizontal).
    pub passes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: eda_par::available_threads(),
            stripes: 4,
            moves_per_cell: 30,
            passes: 2,
            seed: 1,
        }
    }
}

/// Result of a parallel placement run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelOutcome {
    /// The final placement.
    pub placement: Placement,
    /// HPWL after global placement, before refinement.
    pub hpwl_global: f64,
    /// Final HPWL.
    pub hpwl_final: f64,
    /// Wall-clock seconds spent in the parallel refinement phase.
    pub refine_seconds: f64,
    /// Instances refined per second of wall clock.
    pub instances_per_second: f64,
    /// Accumulated parallel-execution record across all stripe dispatches;
    /// its projected wall is the refinement a true multicore host would
    /// observe.
    pub par_stats: eda_par::ParStats,
    /// Annealing moves accepted across all stripes and passes. Each stripe
    /// anneals a private seeded copy, so the sum is thread-invariant.
    pub moves_accepted: usize,
}

impl ParallelOutcome {
    /// Throughput extrapolated to instances per day — the unit Rossi quotes.
    pub fn instances_per_day(&self) -> f64 {
        self.instances_per_second * 86_400.0
    }

    /// Projected throughput on a true multicore host, instances per second.
    pub fn projected_instances_per_second(&self, total_refined: f64) -> f64 {
        total_refined / self.par_stats.projected_wall_s().max(1e-9)
    }
}

/// Places a netlist using multi-threaded stripe refinement.
///
/// # Panics
///
/// Panics if `stripes == 0`.
pub fn place_parallel(netlist: &Netlist, die: Die, cfg: &ParallelConfig) -> ParallelOutcome {
    assert!(cfg.stripes > 0, "at least one stripe required");
    // One index for the whole stage: global placement, every stripe job of
    // every pass, and the reported wirelengths.
    let index = AnnealIndex::build(netlist);
    let mut placement = place_global_on(
        &index.pins,
        netlist,
        die,
        &GlobalConfig { iterations: 6, seed: cfg.seed },
    );
    let hpwl_global = index.pins.total_hpwl(&placement);
    let n = netlist.num_instances();

    let start = Instant::now();
    let mut par_stats = eda_par::ParStats::empty();
    let mut moves_accepted = 0usize;
    for pass in 0..cfg.passes {
        // Partition cells into stripes by x (even pass) or y (odd pass).
        // The stripe count is input/config-determined — never thread-count-
        // determined — so the refinement result is reproducible on any host.
        let lanes = if pass % 2 == 0 { die.cols } else { die.rows };
        let stripes = cfg.stripes.min(lanes).max(1);
        let mut cells_of: Vec<Vec<InstId>> = vec![Vec::new(); stripes];
        for i in 0..n {
            let id = InstId::from_index(i);
            let (c, r) = die.snap(placement.position(id));
            let lane = if pass % 2 == 0 { c } else { r };
            let s = (lane * stripes / lanes).min(stripes - 1);
            cells_of[s].push(id);
        }
        let region_of = |s: usize| -> Region {
            let lo = s * lanes / stripes;
            let hi = ((s + 1) * lanes / stripes).max(lo + 1);
            if pass % 2 == 0 {
                Region { c0: lo, c1: hi, r0: 0, r1: die.rows }
            } else {
                Region { c0: 0, c1: die.cols, r0: lo, r1: hi }
            }
        };
        let stripe_jobs: Vec<(Vec<InstId>, Region, u64)> = cells_of
            .into_iter()
            .enumerate()
            .map(|(s, cells)| {
                (cells, region_of(s), cfg.seed ^ (s as u64 + 1) ^ ((pass as u64) << 8))
            })
            .collect();
        // Each worker anneals a stripe on a private copy of the positions
        // and of the pass's per-net costs (computed once, here); the
        // stripe's cell positions are merged back afterwards (disjoint
        // sets, no conflicts). Each stripe yields its new cell positions
        // plus its accepted-move count (summed into
        // `ParallelOutcome::moves_accepted`).
        type StripeResult = (Vec<(InstId, Point)>, usize);
        let workers = eda_par::resolve_threads(cfg.threads).min(stripe_jobs.len());
        let (moved, stats): (Vec<StripeResult>, eda_par::ParStats) = {
            let placement_ref = &placement;
            let net_cost = index.pins.net_costs(placement_ref);
            eda_par::par_map_stats(workers, &stripe_jobs, |_, (cells, region, seed)| {
                let mut local = placement_ref.clone();
                let accepted = anneal_moves(
                    &index,
                    &mut local,
                    &mut net_cost.clone(),
                    &AnnealConfig {
                        moves_per_cell: cfg.moves_per_cell,
                        seed: *seed,
                        ..Default::default()
                    },
                    Some(cells),
                    Some(*region),
                );
                let positions: Vec<(InstId, Point)> =
                    cells.iter().map(|&id| (id, local.position(id))).collect();
                (positions, accepted)
            })
        };
        par_stats.absorb(&stats);
        for (stripe, accepted) in moved {
            moves_accepted += accepted;
            for (id, p) in stripe {
                placement.set_position(id, p);
            }
        }
    }
    let refine_seconds = start.elapsed().as_secs_f64().max(1e-9);
    let refined = (n * cfg.passes) as f64;
    ParallelOutcome {
        hpwl_global,
        hpwl_final: index.pins.total_hpwl(&placement),
        placement,
        refine_seconds,
        instances_per_second: refined / refine_seconds,
        par_stats,
        moves_accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_netlist::generate;

    #[test]
    fn parallel_refinement_improves_hpwl() {
        let n = generate::random_logic(generate::RandomLogicConfig {
            gates: 600,
            seed: 3,
            ..Default::default()
        })
        .unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let out = place_parallel(&n, die, &ParallelConfig { threads: 4, ..Default::default() });
        assert!(out.hpwl_final < out.hpwl_global);
        assert!(out.instances_per_second > 0.0);
        assert!(out.instances_per_day() > out.instances_per_second);
    }

    #[test]
    fn single_thread_works() {
        let n = generate::parity_tree(64).unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let out = place_parallel(&n, die, &ParallelConfig { threads: 1, ..Default::default() });
        assert!(out.hpwl_final <= out.hpwl_global);
    }

    #[test]
    fn stripes_merge_without_overlap_loss() {
        // After merging, every cell must still be inside the die.
        let n = generate::switch_fabric(4, 4).unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let out = place_parallel(&n, die, &ParallelConfig { threads: 3, ..Default::default() });
        for i in 0..n.num_instances() {
            let p = out.placement.position(InstId::from_index(i));
            assert!(p.x >= 0.0 && p.x <= die.width_um);
            assert!(p.y >= 0.0 && p.y <= die.height_um);
        }
    }

    #[test]
    fn default_threads_track_available_cores() {
        let d = ParallelConfig::default();
        assert_eq!(d.threads, eda_par::available_threads());
        assert!(d.stripes >= 1);
    }

    #[test]
    fn placement_is_identical_for_any_thread_count() {
        let n = generate::random_logic(generate::RandomLogicConfig {
            gates: 300,
            seed: 5,
            ..Default::default()
        })
        .unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let mk = |threads| {
            place_parallel(
                &n,
                die,
                &ParallelConfig { threads, stripes: 4, moves_per_cell: 10, passes: 2, seed: 9 },
            )
        };
        let one = mk(1);
        for threads in [2, 8] {
            let par = mk(threads);
            assert_eq!(one.hpwl_final.to_bits(), par.hpwl_final.to_bits(), "threads={threads}");
            for i in 0..n.num_instances() {
                let id = InstId::from_index(i);
                let a = one.placement.position(id);
                let b = par.placement.position(id);
                assert_eq!(a.x.to_bits(), b.x.to_bits());
                assert_eq!(a.y.to_bits(), b.y.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one stripe")]
    fn zero_stripes_panics() {
        let n = generate::parity_tree(8).unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let _ = place_parallel(&n, die, &ParallelConfig { stripes: 0, ..Default::default() });
    }
}
