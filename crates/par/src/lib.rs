//! Deterministic parallel execution for the eda workspace.
//!
//! One kernel in the flow dispatches through this crate: the partitioned
//! placer's stripe refinement (`eda_place::place_parallel`), driven by the
//! flow's `threads` knob and bit-identical for any thread count. Synthesis,
//! routing, OPC and fault simulation run serially: their parallel
//! dispatches never beat one worker on the hosts measured. The request
//! engine reads [`resolve_threads`] to split its thread budget, and a
//! router test reads [`thread_cpu_seconds`] as a load-proof clock.
//!
//! The determinism contract rests on two rules:
//!
//! 1. **Chunk boundaries are a function of the input only.** Work is split
//!    into fixed-size chunks whose size never depends on the thread count;
//!    workers take chunks round-robin (worker `w` gets chunks `w`, `w + K`,
//!    `w + 2K`, …), and which worker computes a chunk cannot affect its
//!    result.
//! 2. **Results are reassembled in chunk order.** The chunk results are
//!    merged sequentially, so any floating-point reduction over them is
//!    identical at `threads = 1` and `threads = N`.
//!
//! Per DESIGN.md §3 the layer is built directly on [`std::thread::scope`] —
//! no rayon, no extra runtime. Each dispatch also records its workers' total
//! CPU time and its busiest worker's, the critical path ([`ParStats`]), so a
//! host with fewer cores than workers can project the wall clock a real
//! multicore farm would observe. The measured wall clock stays beside it.

use std::ops::Range;
use std::time::Instant;

/// Number of hardware threads available to this process.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Resolves a user-facing `threads` knob: `0` means "all available cores".
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
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

/// Execution record of one parallel dispatch, or of many absorbed ones.
///
/// `chunks` is a pure function of the input size, so it is identical at any
/// thread count; `threads`, `wall_s`, `cpu_s` and `critical_s` describe how
/// this host happened to execute the work. The flow's telemetry layer
/// (`eda_core::telemetry`) records each dispatch as a kernel span along the
/// same split: the chunk count lands in the deterministic section, the
/// worker timings in the wall section.
#[derive(Debug, Clone, PartialEq)]
pub struct ParStats {
    /// Workers actually spawned.
    pub threads: usize,
    /// Chunks processed.
    pub chunks: usize,
    /// Wall-clock seconds for the dispatch on this host.
    pub wall_s: f64,
    /// CPU seconds summed over every worker (`CLOCK_THREAD_CPUTIME_ID`).
    pub cpu_s: f64,
    /// The busiest worker's CPU seconds: the dispatch's critical path.
    pub critical_s: f64,
}

impl ParStats {
    /// An empty record, ready to [`absorb`](Self::absorb) dispatches.
    pub fn empty() -> ParStats {
        ParStats { threads: 1, chunks: 0, wall_s: 0.0, cpu_s: 0.0, critical_s: 0.0 }
    }

    /// Accumulates another record into this one — for kernels that issue
    /// many dispatches per run (e.g. one per OPC iteration). Dispatches run
    /// one after another, so wall, CPU and critical path all add.
    pub fn absorb(&mut self, other: &ParStats) {
        self.threads = self.threads.max(other.threads);
        self.chunks += other.chunks;
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
        self.critical_s += other.critical_s;
    }

    /// Wall clock a host with one dedicated core per worker would observe:
    /// the sum over dispatches of the busiest worker's CPU time.
    pub fn projected_wall_s(&self) -> f64 {
        self.critical_s.max(1e-12)
    }

    /// Projected speedup over running the same work serially.
    pub fn projected_speedup(&self) -> f64 {
        self.cpu_s / self.projected_wall_s()
    }

    /// [`projected_speedup`](Self::projected_speedup) clamped to what the
    /// measured wall clocks can actually support.
    ///
    /// On tiny dispatches the per-thread CPU clock under-ticks: workers
    /// finish below the clock's resolution, the busiest-worker denominator
    /// collapses toward the `1e-12` floor, and the raw ratio reports
    /// super-unity per-worker speedups that no hardware produced (the
    /// placer artifact at 8+ workers on tiny designs). Two bounds restore
    /// physical meaning:
    ///
    /// * a dispatch over `threads` workers cannot beat `threads`× — the
    ///   per-worker speedup is capped at 1;
    /// * when the busiest worker burned less CPU than the clock can
    ///   credibly resolve (`< 1 µs`), the measurement carries no evidence
    ///   of parallel speedup at all, so the projection falls back to 1.0.
    pub fn bounded_speedup(&self) -> f64 {
        const MIN_MEASURABLE_BUSY_S: f64 = 1e-6;
        if self.projected_wall_s() < MIN_MEASURABLE_BUSY_S {
            return 1.0;
        }
        self.projected_speedup().clamp(1.0, self.threads.max(1) as f64)
    }
}

/// Picks a chunk size from the input length alone (never the thread count),
/// aiming for enough chunks to balance load while keeping per-chunk overhead
/// negligible.
fn default_chunk(len: usize) -> usize {
    // ~64 chunks across the input, at least 1 item each.
    (len / 64).max(1)
}

/// Splits `len` items into contiguous chunks of `chunk` items (the last may
/// be short). The partition depends only on `len` and `chunk`.
fn chunk_ranges(len: usize, chunk: usize) -> Vec<Range<usize>> {
    assert!(chunk > 0, "chunk size must be positive");
    (0..len.div_ceil(chunk))
        .map(|c| c * chunk..((c + 1) * chunk).min(len))
        .collect()
}

/// The one dispatch loop under [`par_map_stats`]: runs tasks
/// `0..n` over `workers <= max(n, 1)` slots, task `c` owned by slot
/// `c % workers`, and returns the results in task order. One worker or at
/// most one task runs inline on the caller.
fn dispatch<R, F>(workers: usize, n: usize, f: F) -> (Vec<R>, ParStats)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let t0 = Instant::now();
    let (mut cpu_s, mut critical_s) = (0.0f64, 0.0f64);
    let out: Vec<R> = if workers == 1 || n <= 1 {
        let b0 = thread_cpu_seconds();
        let out = (0..n).map(&f).collect();
        cpu_s = thread_cpu_seconds() - b0;
        critical_s = cpu_s;
        out
    } else {
        let mut tagged: Vec<(usize, R)> = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let f = &f;
            let spawned: Vec<_> = (0..workers)
                .map(|first| {
                    scope.spawn(move || {
                        let b0 = thread_cpu_seconds();
                        let local: Vec<(usize, R)> =
                            (first..n).step_by(workers).map(|c| (c, f(c))).collect();
                        (thread_cpu_seconds() - b0, local)
                    })
                })
                .collect();
            for worker in spawned {
                let (spent, local) = worker.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
                cpu_s += spent;
                critical_s = critical_s.max(spent);
                tagged.extend(local);
            }
        });
        tagged.sort_unstable_by_key(|&(c, _)| c);
        tagged.into_iter().map(|(_, r)| r).collect()
    };
    let wall_s = t0.elapsed().as_secs_f64();
    (out, ParStats { threads: workers, chunks: n, wall_s, cpu_s, critical_s })
}

/// Parallel map over a slice: `out[i] == f(i, &items[i])` for every `i`,
/// in input order, for any thread count, with execution stats.
///
/// The items are split into `default_chunk`-sized chunks, assigned
/// round-robin so each worker's measured busy time reflects its share of
/// the work even when the host has fewer cores than workers (dynamic
/// stealing would let one time-sliced worker drain a short dispatch and
/// skew the projection). `f` must depend only on its item (plus captured
/// shared state), never on which worker runs it.
pub fn par_map_stats<T, R, F>(threads: usize, items: &[T], f: F) -> (Vec<R>, ParStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let ranges = chunk_ranges(items.len(), default_chunk(items.len()));
    let workers = resolve_threads(threads).min(ranges.len()).max(1);
    let (chunks, stats) = dispatch(workers, ranges.len(), |c| {
        ranges[c].clone().map(|i| f(i, &items[i])).collect::<Vec<R>>()
    });
    (chunks.into_iter().flatten().collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let out = par_map_stats(threads, &items, |i, &v| v * 2 + i as u64).0;
            assert_eq!(out.len(), items.len());
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, items[i] * 2 + i as u64);
            }
        }
    }

    #[test]
    fn chunk_partition_ignores_thread_count() {
        let a = chunk_ranges(1000, default_chunk(1000));
        assert!(a.len() > 1);
        assert_eq!(a.first().unwrap().start, 0);
        assert_eq!(a.last().unwrap().end, 1000);
        for w in a.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn stats_account_all_workers() {
        let items: Vec<u64> = (0..8192).collect();
        let (out, stats) = par_map_stats(4, &items, |_, &v| {
            // Enough work per item for the CPU clock to tick.
            (0..50).fold(v, |a, x| a.wrapping_mul(31).wrapping_add(x))
        });
        assert_eq!(out.len(), items.len());
        assert!(stats.threads >= 1 && stats.threads <= 4);
        // The busiest worker carries at least the mean and at most the sum.
        assert!(stats.critical_s <= stats.cpu_s);
        assert!(stats.critical_s * stats.threads as f64 + 1e-12 >= stats.cpu_s);
        assert!(stats.wall_s >= 0.0);
        assert!(stats.projected_wall_s() > 0.0);
        assert!(stats.projected_speedup() >= 0.5);
    }

    fn record(threads: usize, cpu_s: f64, critical_s: f64) -> ParStats {
        ParStats { threads, chunks: threads, wall_s: critical_s, cpu_s, critical_s }
    }

    #[test]
    fn absorbed_dispatches_project_the_sum_of_their_critical_paths() {
        // Two one-task dispatches over two workers, each run by a different
        // one: they still ran one after the other, so the projection is
        // their sum and nothing was sped up.
        let mut both = record(2, 0.1, 0.1);
        both.absorb(&record(2, 0.1, 0.1));
        assert!((both.projected_wall_s() - 0.2).abs() < 1e-12);
        assert!((both.projected_speedup() - 1.0).abs() < 1e-12);
        assert_eq!(both.bounded_speedup(), 1.0);

        // A live one-task dispatch is its own critical path.
        let (_, one) = par_map_stats(4, &[42u64], |_, &v| {
            std::hint::black_box((0..20_000u64).fold(v, |a, x| a.wrapping_mul(31) ^ x))
        });
        assert_eq!(one.critical_s, one.cpu_s);
    }

    #[test]
    fn bounded_speedup_stays_within_wall_clock_bounds() {
        // Under-resolution busy clocks: no evidence of parallelism → 1.0.
        let tiny = record(8, 8e-9, 1e-9);
        assert!(tiny.projected_speedup() > 1.0, "raw projection over-reports");
        assert_eq!(tiny.bounded_speedup(), 1.0);

        // All-zero busy clocks (raw projection reads 0.0) also fall back.
        let zero = record(8, 0.0, 0.0);
        assert_eq!(zero.bounded_speedup(), 1.0);

        // A healthy dispatch passes through unchanged…
        let good = record(4, 0.4, 0.1);
        assert!((good.bounded_speedup() - good.projected_speedup()).abs() < 1e-12);

        // …and per-worker speedup never exceeds 1 even when absorbed records
        // differ in width.
        let mut skew = record(2, 0.1, 0.05);
        skew.absorb(&record(8, 0.08, 0.01));
        assert!(skew.bounded_speedup() <= skew.threads as f64);
        assert!(skew.bounded_speedup() >= 1.0);
    }

    #[test]
    fn zero_threads_means_available() {
        assert_eq!(resolve_threads(0), available_threads());
        assert_eq!(resolve_threads(3), 3);
        let out = par_map_stats(0, &[1, 2, 3], |_, &v| v + 1).0;
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = par_map_stats(4, &[] as &[u32], |_, &v| v).0;
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_panics() {
        let _ = chunk_ranges(10, 0);
    }
}
