//! Host facts and process counters. Everything here is *reported*, never
//! used to adjust a measured number: the calibration loop exists so a slow
//! epoch of this shared VM is visible next to the numbers it polluted.

use std::time::Instant;

/// What the benchmark ran on, printed with every run.
pub struct HostInfo {
    pub nproc: usize,
    pub available_parallelism: usize,
    pub kernel: String,
    pub cpu_model: String,
    pub loadavg: String,
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

impl HostInfo {
    pub fn probe() -> HostInfo {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let nproc = cpuinfo
            .lines()
            .filter(|l| l.starts_with("processor"))
            .count();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        HostInfo {
            nproc,
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: read_trimmed("/proc/sys/kernel/osrelease"),
            cpu_model,
            loadavg: read_trimmed("/proc/loadavg"),
        }
    }
}

/// Seconds one fixed integer + memory-walk loop takes (~50 ms on the sizing
/// host). The walk strides a 16 MiB table so both the ALUs and the memory
/// system are in the number.
pub fn calibrate() -> f64 {
    const WORDS: usize = 1 << 21;
    let mut table: Vec<u64> = (0..WORDS as u64).collect();
    let started = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut at = 0usize;
    for _ in 0..6_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        at = (at + (x as usize | 1)) & (WORDS - 1);
        table[at] = table[at].wrapping_add(x);
    }
    std::hint::black_box(&table);
    started.elapsed().as_secs_f64()
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    eda::core::read_peak_rss_bytes() as f64 / 1e6
}

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (10 ms ticks — fine for second-scale ops).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, i.e. 11 and 12 past the `)`.
    let ticks: u64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| {
            rest.split_whitespace()
                .skip(11)
                .take(2)
                .filter_map(|v| v.parse::<u64>().ok())
                .sum()
        })
        .unwrap_or(0);
    ticks as f64 / 100.0
}
