//! Benchmark harness library: shared helpers for the Criterion benches'
//! `BENCHLINE` rows (the experiment claims live in the `experiments`
//! binary).

/// Median of `runs` samples of `f` — the same estimator the criterion
/// stand-in reports. Used for the `BENCHLINE` rows, whose samples the bench
/// times itself rather than through the Bencher.
pub fn median_seconds(runs: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..runs.max(1)).map(|_| f()).collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_picks_middle_sample() {
        let mut vals = [3.0, 1.0, 2.0].into_iter();
        assert_eq!(median_seconds(3, || vals.next().unwrap()), 2.0);
    }
}
