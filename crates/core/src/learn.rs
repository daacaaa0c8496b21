//! The self-learning flow engine.
//!
//! Rossi (claim C11): *"there is no real self-monitoring of the
//! implementation tools able to generate information useful to the next
//! runs... a kind of built-in self-learning engine having access [to] an
//! exhaustive set of information could better drive for more consistent
//! results."* [`FlowTuner`] is that engine in miniature: an ε-greedy bandit
//! over flow-parameter arms that records every run's QoR and steers later
//! runs toward the arms that delivered.

use crate::config::FlowConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One tunable arm: a named set of flow-parameter overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    /// Display name.
    pub name: String,
    /// Annealing moves per cell.
    pub anneal_moves_per_cell: usize,
    /// Rip-up iterations for the router.
    pub ripup_iterations: usize,
}

impl Arm {
    /// Applies the arm to a config.
    pub fn apply(&self, cfg: &FlowConfig) -> FlowConfig {
        let mut out = cfg.clone();
        out.anneal_moves_per_cell = self.anneal_moves_per_cell;
        out.ripup_iterations = self.ripup_iterations;
        out
    }
}

/// Statistics the tuner keeps per arm — Rossi's "exhaustive set of
/// information" from previous runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ArmStats {
    /// Runs recorded.
    pub runs: u32,
    /// Mean score (lower = better).
    pub mean_score: f64,
}

/// An ε-greedy bandit over flow arms.
#[derive(Debug, Clone)]
pub struct FlowTuner {
    arms: Vec<Arm>,
    stats: Vec<ArmStats>,
    epsilon: f64,
    rng: StdRng,
}

impl FlowTuner {
    /// Creates a tuner with the default arm ladder (effort levels from
    /// too-lazy to overkill; the interesting middle must be *learned*).
    pub fn new(seed: u64) -> FlowTuner {
        let arms = vec![
            Arm { name: "lazy".into(), anneal_moves_per_cell: 5, ripup_iterations: 1 },
            Arm { name: "light".into(), anneal_moves_per_cell: 20, ripup_iterations: 3 },
            Arm { name: "standard".into(), anneal_moves_per_cell: 40, ripup_iterations: 6 },
            Arm { name: "heavy".into(), anneal_moves_per_cell: 80, ripup_iterations: 8 },
        ];
        let n = arms.len();
        FlowTuner { arms, stats: vec![ArmStats::default(); n], epsilon: 0.2, rng: StdRng::seed_from_u64(seed) }
    }

    /// Suggests the next arm to run: unexplored arms first, then ε-greedy.
    pub fn suggest(&mut self) -> usize {
        if let Some(i) = self.stats.iter().position(|s| s.runs == 0) {
            return i;
        }
        if self.rng.gen::<f64>() < self.epsilon {
            return self.rng.gen_range(0..self.arms.len());
        }
        self.best_arm()
    }

    /// Records the score of a run with arm `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn record(&mut self, index: usize, score: f64) {
        let s = &mut self.stats[index];
        s.mean_score = (s.mean_score * s.runs as f64 + score) / (s.runs + 1) as f64;
        s.runs += 1;
    }

    /// The arm with the best (lowest) mean score; unexplored arms lose.
    pub fn best_arm(&self) -> usize {
        (0..self.arms.len())
            .filter(|&i| self.stats[i].runs > 0)
            .min_by(|&a, &b| self.stats[a].mean_score.total_cmp(&self.stats[b].mean_score))
            .unwrap_or(0)
    }

    /// The arms.
    pub fn arms(&self) -> &[Arm] {
        &self.arms
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &[ArmStats] {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic QoR oracle: "standard" is the sweet spot, with noise.
    fn oracle(arm: &Arm, rng: &mut StdRng) -> f64 {
        let ideal = 40.0;
        let miss = (arm.anneal_moves_per_cell as f64 - ideal).abs();
        100.0 + miss + rng.gen::<f64>() * 5.0
    }

    #[test]
    fn tuner_converges_to_the_sweet_spot() {
        let mut tuner = FlowTuner::new(3);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..60 {
            let i = tuner.suggest();
            let arm = tuner.arms()[i].clone();
            let score = oracle(&arm, &mut rng);
            tuner.record(i, score);
        }
        assert_eq!(tuner.arms()[tuner.best_arm()].name, "standard");
        // The learned arm is exploited more than explored arms on average.
        let best_runs = tuner.stats()[tuner.best_arm()].runs;
        let avg_other: f64 = tuner
            .stats()
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != tuner.best_arm())
            .map(|(_, s)| s.runs as f64)
            .sum::<f64>()
            / (tuner.arms().len() - 1) as f64;
        assert!(best_runs as f64 > avg_other, "exploitation should dominate");
    }

    #[test]
    fn all_arms_explored_first() {
        let mut tuner = FlowTuner::new(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..tuner.arms().len() {
            let i = tuner.suggest();
            seen.insert(i);
            tuner.record(i, 1.0);
        }
        assert_eq!(seen.len(), tuner.arms().len());
    }

    #[test]
    fn record_averages() {
        let mut tuner = FlowTuner::new(1);
        tuner.record(0, 10.0);
        tuner.record(0, 20.0);
        assert_eq!(tuner.stats()[0].runs, 2);
        assert!((tuner.stats()[0].mean_score - 15.0).abs() < 1e-12);
    }

    #[test]
    fn arm_applies_overrides() {
        use eda_tech::Node;
        let cfg = FlowConfig::advanced_2016(Node::N28);
        let arm = Arm { name: "x".into(), anneal_moves_per_cell: 7, ripup_iterations: 2 };
        let out = arm.apply(&cfg);
        assert_eq!(out.anneal_moves_per_cell, 7);
        assert_eq!(out.ripup_iterations, 2);
        assert_eq!(out.library, cfg.library);
    }
}
