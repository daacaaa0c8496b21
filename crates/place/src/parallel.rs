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
//! set by [`ParallelConfig::stripes`] and never by the thread count; stripe
//! `j` runs on worker `j % workers` and the stripes merge back in stripe
//! order, so the final placement is bit-identical for any
//! [`ParallelConfig::threads`] value — workers only change how fast the same
//! stripes are annealed. The dispatch is the flow's only parallel one, on
//! [`std::thread::scope`]; its [`StripeStats`] project the wall clock a
//! host with a core per worker would observe, beside the measured one.

use crate::anneal::{anneal_moves, AnnealConfig, AnnealIndex, Region};
use crate::floorplan::{Die, Point};
use crate::global::{place_global_on, GlobalConfig};
use crate::placement::Placement;
use eda_netlist::{InstId, Netlist};
use std::time::Instant;

/// Stripe passes, alternating vertical and horizontal.
const PASSES: usize = 2;

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
    /// RNG seed.
    pub seed: u64,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: available_threads(),
            stripes: 4,
            moves_per_cell: 30,
            seed: 1,
        }
    }
}

/// Execution record of a run's stripe dispatches, one per pass, summed.
/// `stripes` depends on the input and config only; the rest describes how
/// this host ran them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StripeStats {
    /// Most workers any dispatch ran on.
    pub threads: usize,
    /// Stripe tasks run, over every pass.
    pub stripes: usize,
    /// Wall-clock seconds inside the dispatches.
    pub wall_s: f64,
    /// CPU seconds summed over every worker (`CLOCK_THREAD_CPUTIME_ID`).
    pub cpu_s: f64,
    /// The busiest worker's CPU seconds, summed over dispatches: the
    /// critical path.
    pub critical_s: f64,
}

impl StripeStats {
    /// Wall clock a host with one dedicated core per worker would observe.
    pub fn projected_wall_s(&self) -> f64 {
        self.critical_s.max(1e-12)
    }

    /// Projected speedup over one worker: total CPU over the critical path.
    /// Each dispatch's CPU is a sum over at most `threads` workers, none
    /// busier than its busiest, so the ratio already lies in `[1, threads]`.
    /// When the busiest worker burned less CPU than the clock credibly
    /// resolves (`< 1 µs`) the projection is 1.0.
    pub fn projected_speedup(&self) -> f64 {
        const MIN_MEASURABLE_BUSY_S: f64 = 1e-6;
        if self.projected_wall_s() < MIN_MEASURABLE_BUSY_S {
            return 1.0;
        }
        self.cpu_s / self.projected_wall_s()
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
    /// The stripe dispatches' timing, summed over passes; its projected
    /// wall is the refinement a true multicore host would observe.
    pub stats: StripeStats,
    /// Annealing moves accepted across all stripes and passes. Each stripe
    /// anneals a private seeded copy, so the sum is thread-invariant.
    pub moves_accepted: usize,
}

/// CPU time consumed by the calling thread, in seconds.
pub fn thread_cpu_seconds() -> f64 {
    let mut ts = libc::timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: clock_gettime with a valid clock id and out-pointer.
    unsafe {
        libc::clock_gettime(libc::CLOCK_THREAD_CPUTIME_ID, &mut ts);
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Hardware threads available to this process.
fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` over `jobs` on `workers` scoped threads, job `j` on worker
/// `j % workers` (round-robin rather than stealing, so each worker's busy
/// time stays its fair share on a host with fewer cores than workers), and
/// returns the results in job order. One worker runs inline on the caller.
fn dispatch<T: Sync, R: Send>(workers: usize, jobs: &[T], f: impl Fn(&T) -> R + Sync) -> (Vec<R>, StripeStats) {
    let t0 = Instant::now();
    let run = |first: usize| {
        let b0 = thread_cpu_seconds();
        let local: Vec<(usize, R)> = (first..jobs.len()).step_by(workers).map(|j| (j, f(&jobs[j]))).collect();
        (thread_cpu_seconds() - b0, local)
    };
    let done: Vec<(f64, Vec<(usize, R)>)> = if workers == 1 {
        vec![run(0)]
    } else {
        std::thread::scope(|scope| {
            let run = &run;
            let spawned: Vec<_> = (0..workers).map(|w| scope.spawn(move || run(w))).collect();
            spawned.into_iter().map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))).collect()
        })
    };
    let cpu_s = done.iter().map(|(spent, _)| spent).sum();
    let critical_s = done.iter().map(|&(spent, _)| spent).fold(0.0, f64::max);
    let mut tagged: Vec<(usize, R)> = done.into_iter().flat_map(|(_, local)| local).collect();
    tagged.sort_unstable_by_key(|&(j, _)| j);
    let out = tagged.into_iter().map(|(_, r)| r).collect();
    let wall_s = t0.elapsed().as_secs_f64();
    (out, StripeStats { threads: workers, stripes: jobs.len(), wall_s, cpu_s, critical_s })
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

    let threads = if cfg.threads == 0 { available_threads() } else { cfg.threads };
    let mut stats = StripeStats::default();
    let mut moves_accepted = 0usize;
    for pass in 0..PASSES {
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
        let (moved, pass): (Vec<StripeResult>, StripeStats) = {
            let placement_ref = &placement;
            let net_cost = index.pins.net_costs(placement_ref);
            dispatch(threads.min(stripe_jobs.len()), &stripe_jobs, |(cells, region, seed)| {
                let mut local = placement_ref.clone();
                let accepted = anneal_moves(
                    &index,
                    &mut local,
                    &mut net_cost.clone(),
                    &AnnealConfig { moves_per_cell: cfg.moves_per_cell, seed: *seed },
                    Some(cells),
                    Some(*region),
                );
                let positions: Vec<(InstId, Point)> =
                    cells.iter().map(|&id| (id, local.position(id))).collect();
                (positions, accepted)
            })
        };
        // Passes run one after another, so wall, CPU and critical path add.
        stats.threads = stats.threads.max(pass.threads);
        stats.stripes += pass.stripes;
        stats.wall_s += pass.wall_s;
        stats.cpu_s += pass.cpu_s;
        stats.critical_s += pass.critical_s;
        for (stripe, accepted) in moved {
            moves_accepted += accepted;
            for (id, p) in stripe {
                placement.set_position(id, p);
            }
        }
    }
    ParallelOutcome {
        hpwl_global,
        hpwl_final: index.pins.total_hpwl(&placement),
        placement,
        stats,
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
        assert!(out.stats.wall_s > 0.0);
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
                &ParallelConfig { threads, stripes: 4, moves_per_cell: 10, seed: 9 },
            )
        };
        let one = mk(1);
        for threads in [0, 2, 8] {
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
    fn dispatch_returns_results_in_stripe_order() {
        let jobs: Vec<u64> = (0..37).collect();
        let want: Vec<u64> = jobs.iter().map(|&v| v * 2 + 1).collect();
        for workers in [1, 2, 3, 8] {
            let (out, stats) = dispatch(workers, &jobs, |&v| v * 2 + 1);
            assert_eq!(out, want, "workers={workers}");
            assert_eq!((stats.threads, stats.stripes), (workers, jobs.len()));
        }
    }

    /// `place_parallel`'s timing record on a 600-gate design, two passes.
    fn stats_of(threads: usize, stripes: usize) -> StripeStats {
        let cfg = generate::RandomLogicConfig { gates: 600, seed: 7, ..Default::default() };
        let n = generate::random_logic(cfg).unwrap();
        let cfg = ParallelConfig { threads, stripes, moves_per_cell: 20, seed: 3 };
        place_parallel(&n, Die::for_netlist(&n, 0.7), &cfg).stats
    }

    #[test]
    fn stats_account_all_workers() {
        let stats = stats_of(4, 8);
        assert_eq!((stats.threads, stats.stripes), (4, 16), "8 stripes in each of 2 passes");
        // The busiest worker carries at least the mean and at most the sum.
        assert!(stats.critical_s <= stats.cpu_s);
        assert!(stats.critical_s * stats.threads as f64 + 1e-12 >= stats.cpu_s);
        assert!(stats.wall_s > 0.0 && stats.projected_wall_s() > 0.0);
        assert!((1.0..=4.0).contains(&stats.projected_speedup()));
    }

    #[test]
    fn absorbed_dispatches_project_the_sum_of_their_critical_paths() {
        // Two one-stripe passes with two workers granted: each dispatch runs
        // its stripe inline, the passes run one after the other, so the
        // projection is the sum of both and nothing was sped up.
        let stats = stats_of(2, 1);
        assert_eq!((stats.threads, stats.stripes), (1, 2));
        assert_eq!(stats.critical_s, stats.cpu_s);
        assert_eq!(stats.projected_speedup(), 1.0);
    }

    #[test]
    fn projected_speedup_is_one_below_the_clock_floor() {
        let record =
            |threads, cpu_s, critical_s| StripeStats { threads, stripes: threads, wall_s: critical_s, cpu_s, critical_s };
        // Under-resolution busy clocks: no evidence of parallelism → 1.0,
        // and all-zero ones (raw projection 0.0) too.
        let tiny = record(8, 8e-9, 1e-9);
        assert!(tiny.cpu_s / tiny.projected_wall_s() > 1.0, "raw projection over-reports");
        assert_eq!(tiny.projected_speedup(), 1.0);
        assert_eq!(record(8, 0.0, 0.0).projected_speedup(), 1.0);
        // A healthy record passes through unchanged.
        assert!((record(4, 0.4, 0.1).projected_speedup() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn zero_threads_means_available() {
        assert_eq!(ParallelConfig::default().threads, available_threads());
        assert_eq!(stats_of(0, 4).threads, available_threads().min(4));
    }

    #[test]
    #[should_panic(expected = "at least one stripe")]
    fn zero_stripes_panics() {
        let n = generate::parity_tree(8).unwrap();
        let die = Die::for_netlist(&n, 0.7);
        let _ = place_parallel(&n, die, &ParallelConfig { stripes: 0, ..Default::default() });
    }
}
