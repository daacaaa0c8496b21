//! Deterministic parallel execution for the eda workspace.
//!
//! Every hot kernel in the flow — fault simulation, OPC, routing, the
//! partitioned placer, the experiments harness — funnels its parallelism
//! through this crate so that one `threads` knob controls the whole flow and
//! every kernel is **bit-identical for any thread count**.
//!
//! The determinism contract rests on two rules:
//!
//! 1. **Chunk boundaries are a function of the input only.** Work is split
//!    into fixed-size chunks whose size never depends on the thread count;
//!    workers take chunks round-robin (worker `w` gets chunks `w`, `w + K`,
//!    `w + 2K`, …), and which worker computes a chunk cannot affect its
//!    result.
//! 2. **Results are reassembled in chunk order.** Callers merge the chunk
//!    results sequentially, so any floating-point reduction over them is
//!    identical at `threads = 1` and `threads = N`.
//!
//! Per DESIGN.md §3 the layer is built directly on [`std::thread::scope`] —
//! no rayon, no extra runtime. Each dispatch also records per-worker CPU time
//! ([`ParStats`]) so oversubscribed hosts (this workspace is developed on a
//! single-core machine) can report the wall clock a real multicore farm
//! would observe — the same convention the C9 placer established.

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

/// Execution record of one parallel dispatch.
///
/// `chunks` is a pure function of the input size, so it is identical at any
/// thread count; `threads`, `wall_s`, and `busy_s` describe how this host
/// happened to execute the dispatch. The flow's telemetry layer
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
    /// Per-worker busy CPU seconds (`CLOCK_THREAD_CPUTIME_ID`).
    pub busy_s: Vec<f64>,
}

impl ParStats {
    /// An empty record, ready to [`absorb`](Self::absorb) dispatches.
    pub fn empty() -> ParStats {
        ParStats { threads: 1, chunks: 0, wall_s: 0.0, busy_s: Vec::new() }
    }

    /// Accumulates another dispatch's record into this one — for kernels that
    /// issue many dispatches per run (e.g. one per OPC iteration). Wall time
    /// adds; per-worker busy time adds slot-wise, so the projected wall of
    /// the combined record is the sum of the busiest workers.
    pub fn absorb(&mut self, other: &ParStats) {
        self.threads = self.threads.max(other.threads);
        self.chunks += other.chunks;
        self.wall_s += other.wall_s;
        if self.busy_s.len() < other.busy_s.len() {
            self.busy_s.resize(other.busy_s.len(), 0.0);
        }
        for (a, b) in self.busy_s.iter_mut().zip(&other.busy_s) {
            *a += b;
        }
    }

    /// Total CPU seconds burned across workers — the serial-equivalent cost.
    pub fn total_cpu_s(&self) -> f64 {
        self.busy_s.iter().sum()
    }

    /// Wall clock a host with one dedicated core per worker would observe:
    /// the busiest worker's CPU time.
    pub fn projected_wall_s(&self) -> f64 {
        self.busy_s.iter().cloned().fold(0.0, f64::max).max(1e-12)
    }

    /// Projected speedup over running the same work serially.
    pub fn projected_speedup(&self) -> f64 {
        self.total_cpu_s() / self.projected_wall_s()
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
pub fn default_chunk(len: usize) -> usize {
    // ~64 chunks across the input, at least 1 item each.
    (len / 64).max(1)
}

/// Splits `len` items into contiguous chunks of `chunk` items (the last may
/// be short). The partition depends only on `len` and `chunk`.
pub fn chunk_ranges(len: usize, chunk: usize) -> Vec<Range<usize>> {
    assert!(chunk > 0, "chunk size must be positive");
    (0..len.div_ceil(chunk))
        .map(|c| c * chunk..((c + 1) * chunk).min(len))
        .collect()
}

/// Applies `f` to every fixed-size chunk of `0..len`, returning the chunk
/// results **in chunk order** together with execution stats.
///
/// This is the layer's core primitive: `f` sees a contiguous index range and
/// must depend only on that range (plus captured shared state), never on
/// which worker runs it. Chunks are assigned round-robin so each worker's
/// measured busy time reflects its share of the work even when the host has
/// fewer cores than workers (dynamic stealing would let one time-sliced
/// worker drain a short dispatch and skew the projection).
pub fn par_chunks_stats<R, F>(
    threads: usize,
    len: usize,
    chunk: usize,
    f: F,
) -> (Vec<R>, ParStats)
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let ranges = chunk_ranges(len, chunk);
    let workers = resolve_threads(threads).min(ranges.len()).max(1);
    dispatch(workers, 0, ranges.len(), |c| f(ranges[c].clone()))
}

/// The one dispatch loop under every `par_*` entry point: runs tasks
/// `0..n` over `workers` slots, task `c` owned by slot `(c + off) % workers`
/// (`off < workers`), and returns the results in task order. The record
/// always reports `workers` threads and one `busy_s` slot per worker (idle
/// slots read 0.0); a slot that owns no task is never spawned, and one
/// worker or at most one task runs inline on the caller, credited to slot
/// `off`.
fn dispatch<R, F>(workers: usize, off: usize, n: usize, f: F) -> (Vec<R>, ParStats)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let t0 = Instant::now();
    let mut busy = vec![0.0; workers];
    let out: Vec<R> = if workers == 1 || n <= 1 {
        let b0 = thread_cpu_seconds();
        let out = (0..n).map(&f).collect();
        busy[off] = thread_cpu_seconds() - b0;
        out
    } else {
        let mut tagged: Vec<(usize, R)> = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let f = &f;
            let spawned: Vec<_> = (0..workers)
                .map(|w| (w, (w + workers - off) % workers))
                .filter(|&(_, first)| first < n)
                .map(|(w, first)| {
                    let worker = scope.spawn(move || {
                        let b0 = thread_cpu_seconds();
                        let local: Vec<(usize, R)> =
                            (first..n).step_by(workers).map(|c| (c, f(c))).collect();
                        (thread_cpu_seconds() - b0, local)
                    });
                    (w, worker)
                })
                .collect();
            for (w, worker) in spawned {
                let (spent, local) = worker.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
                busy[w] = spent;
                tagged.extend(local);
            }
        });
        tagged.sort_unstable_by_key(|&(c, _)| c);
        tagged.into_iter().map(|(_, r)| r).collect()
    };
    let stats =
        ParStats { threads: workers, chunks: n, wall_s: t0.elapsed().as_secs_f64(), busy_s: busy };
    (out, stats)
}

/// Parallel map over a slice: `out[i] == f(i, &items[i])` for every `i`,
/// in input order, for any thread count.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_stats(threads, items, f).0
}

/// [`par_map`] with execution stats.
pub fn par_map_stats<T, R, F>(threads: usize, items: &[T], f: F) -> (Vec<R>, ParStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let chunk = default_chunk(items.len());
    let (chunks, stats) = par_chunks_stats(threads, items.len(), chunk, |range| {
        range.map(|i| f(i, &items[i])).collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for c in chunks {
        out.extend(c);
    }
    (out, stats)
}

/// Parallel map over **coarse, uneven tasks**: one chunk per task, so a
/// heavy task never serializes the light tasks that the default `len/64`
/// chunking would glue onto it. This is the region router's dispatch
/// shape — one routing wave is a handful of region-sized batches of
/// wildly different weight. Determinism is inherited from
/// [`par_chunks_stats`]: task results come back in input order for any
/// thread count, and workers own tasks round-robin (worker `w` takes
/// tasks `w`, `w + K`, `w + 2K`, …).
pub fn par_tasks_stats<T, R, F>(threads: usize, items: &[T], f: F) -> (Vec<R>, ParStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_chunks_stats(threads, items.len(), 1, |range| f(range.start, &items[range.start]))
}

/// [`par_tasks_stats`] with a rotating stripe offset: task `c` is owned by
/// worker `(c + offset) % K` instead of `c % K`, and the returned `busy_s`
/// always spans the full resolved worker count (idle slots read 0.0).
///
/// This exists for callers that issue **many tiny dispatches** and
/// [`absorb`](ParStats::absorb) them into one record. Plain round-robin
/// pins task 0 of every dispatch to worker 0, so a stream of one- and
/// two-task dispatches piles its entire CPU bill onto the low worker
/// slots and the busiest-worker projection collapses. Rotating the offset
/// across dispatches (the caller picks it — e.g. the least-loaded slot of
/// a running ledger) spreads that stream evenly. Results still come back
/// in input order and each task's output is independent of which worker
/// ran it, so determinism is unaffected.
pub fn par_tasks_stats_at<T, R, F>(
    threads: usize,
    offset: usize,
    items: &[T],
    f: F,
) -> (Vec<R>, ParStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = resolve_threads(threads).max(1);
    dispatch(workers, offset % workers, items.len(), |c| f(c, &items[c]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let out = par_map(threads, &items, |i, &v| v * 2 + i as u64);
            assert_eq!(out.len(), items.len());
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, items[i] * 2 + i as u64);
            }
        }
    }

    #[test]
    fn offset_tasks_preserve_order_and_credit_rotated_slots() {
        let items: Vec<u64> = (0..37).collect();
        let want: Vec<u64> = items.iter().map(|&v| v * 3 + 1).collect();
        for threads in [1usize, 2, 4, 8] {
            for offset in [0usize, 1, 3, 7] {
                let (out, stats) =
                    par_tasks_stats_at(threads, offset, &items, |_, &v| v * 3 + 1);
                assert_eq!(out, want, "threads={threads} offset={offset}");
                assert_eq!(stats.busy_s.len(), threads, "busy spans all slots");
            }
        }
        // A single-task dispatch must credit the offset slot, not slot 0 —
        // that crediting is what lets a stream of tiny dispatches rotate
        // its CPU bill across workers.
        let one = [42u64];
        let (_, stats) = par_tasks_stats_at(4, 2, &one, |_, &v| {
            std::hint::black_box((0..20_000u64).fold(v, |a, x| a.wrapping_mul(31) ^ x))
        });
        assert_eq!(stats.busy_s.len(), 4);
        let hot: Vec<usize> = (0..4).filter(|&w| stats.busy_s[w] > 0.0).collect();
        assert_eq!(hot, vec![2], "busy credited to the rotated slot");
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
        assert_eq!(stats.busy_s.len(), stats.threads);
        assert!(stats.wall_s >= 0.0);
        assert!(stats.projected_wall_s() > 0.0);
        assert!(stats.projected_speedup() >= 0.5);
    }

    #[test]
    fn bounded_speedup_stays_within_wall_clock_bounds() {
        // Under-resolution busy clocks: no evidence of parallelism → 1.0.
        let tiny = ParStats { threads: 8, chunks: 8, wall_s: 0.0, busy_s: vec![1e-9; 8] };
        assert!(tiny.projected_speedup() > 1.0, "raw projection over-reports");
        assert_eq!(tiny.bounded_speedup(), 1.0);

        // All-zero busy clocks (raw projection reads 0.0) also fall back.
        let zero = ParStats { threads: 8, chunks: 8, wall_s: 0.0, busy_s: vec![0.0; 8] };
        assert_eq!(zero.bounded_speedup(), 1.0);

        // A healthy dispatch passes through unchanged…
        let good = ParStats { threads: 4, chunks: 64, wall_s: 0.1, busy_s: vec![0.1; 4] };
        assert!((good.bounded_speedup() - good.projected_speedup()).abs() < 1e-12);

        // …and per-worker speedup never exceeds 1 even if absorbed records
        // skew the slot accounting.
        let mut skew = ParStats { threads: 2, chunks: 4, wall_s: 0.1, busy_s: vec![0.05, 0.05] };
        skew.absorb(&ParStats { threads: 8, chunks: 8, wall_s: 0.1, busy_s: vec![0.01; 8] });
        assert!(skew.bounded_speedup() <= skew.threads as f64);
        assert!(skew.bounded_speedup() >= 1.0);
    }

    #[test]
    fn tasks_dispatch_one_chunk_per_item_in_order() {
        let items: Vec<usize> = (0..37).collect();
        let serial: Vec<usize> = items.iter().map(|&v| v * 3).collect();
        for threads in [1, 2, 4, 8] {
            let (out, stats) = par_tasks_stats(threads, &items, |i, &v| {
                assert_eq!(i, v);
                v * 3
            });
            assert_eq!(out, serial, "threads={threads}");
            assert_eq!(stats.chunks, items.len());
        }
        let (empty, stats) = par_tasks_stats(4, &[] as &[u32], |_, &v| v);
        assert!(empty.is_empty());
        assert_eq!(stats.chunks, 0);
    }

    #[test]
    fn zero_threads_means_available() {
        assert_eq!(resolve_threads(0), available_threads());
        assert_eq!(resolve_threads(3), 3);
        let out = par_map(0, &[1, 2, 3], |_, &v| v + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = par_map(4, &[] as &[u32], |_, &v| v);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_panics() {
        let _ = chunk_ranges(10, 0);
    }
}
