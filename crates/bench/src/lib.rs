//! Benchmark harness library: shared helpers for the Criterion benches'
//! thread-scaling rows (the experiment claims live in the `experiments`
//! binary).

/// Thread counts for the thread-scaling benches: 1 plus the
/// `EDA_BENCH_THREADS` value when it exceeds 1 (default 4). Both rows are
/// measured back-to-back in the same process so the serial/parallel ratio is
/// not polluted by machine noise between separate bench invocations. The
/// emitted `BENCHLINE <kernel>_par/<threads>` rows are projections from
/// per-worker CPU clocks — reported, never gated; measured wall clocks are
/// `benchmark/`'s job.
pub fn scaling_threads() -> Vec<usize> {
    let n: usize = std::env::var("EDA_BENCH_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4);
    if n > 1 {
        vec![1, n]
    } else {
        vec![1]
    }
}

/// Median of `runs` samples of `f` — the same estimator the criterion
/// stand-in reports. Used for projected-wall samples, which come from
/// per-worker CPU clocks rather than the Bencher's wall clock (this host may
/// have fewer cores than workers; see eda-par).
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
