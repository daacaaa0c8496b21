//! The benchmark's vocabulary: workloads and metric names, units,
//! directions and bounds. `BENCHMARK.json` carries the same lists for the
//! driver; `tests/contract.rs` fails if the two ever disagree.

use std::collections::BTreeMap;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json` and run by the driver. An ungated
    /// workload is too noisy on the sizing VM for any admissible bound and
    /// runs by hand only (README, known gaps).
    pub gated: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mesh_t1",
        why: "one 50k-instance mesh through run_flow at threads=1, no store: single-design turnaround and memory; synthesis and the region router share the wall; store and daemon bypassed",
        gated: true,
    },
    Workload {
        name: "mesh_t2",
        why: "same design and config at threads=2: the only workload where eda-par dispatch/merge runs with more than one worker; ungated, its op takes 11-35 s on the sizing VM for identical work",
        gated: false,
    },
    Workload {
        name: "replay20k",
        why: "20k mesh against a fresh store per op: cold fill, warm replay, route-edit replay; ungated, identical ops took 5.3-9.3 s within six minutes; its layer numbers ride in the traced flowd_pairs run",
        gated: false,
    },
    Workload {
        name: "flowd_pairs",
        why: "in-process flowd, 2 workers, 2 closed-loop connections driving cold mult:8+fabric:8x16 pairs: shared-daemon latency/throughput and the only advanced_2016 path (EC, scan+ATPG, N10 litho, dense router)",
        gated: true,
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Reported by every workload with `--trace 0`.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("op_wall_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
];

/// Reported by every workload with `--trace 1`; a layer the workload
/// bypasses reads 0. README.md says which end-to-end metric each should
/// move, and on which workload.
pub const PER_LAYER: [MetricDef; 41] = [
    layer("netlist.gen_s", "s", "lower"),
    layer("netlist.instances", "count", "higher"),
    layer("logic.synthesis_s", "s", "lower"),
    layer("logic.cells", "count", "lower"),
    layer("place.place_s", "s", "lower"),
    layer("place.cts_s", "s", "lower"),
    layer("sta.sta_s", "s", "lower"),
    layer("power.clock_gating_s", "s", "lower"),
    layer("power.analysis_s", "s", "lower"),
    layer("route.route_s", "s", "lower"),
    layer("route.overflow", "count", "lower"),
    layer("route.wirelength", "count", "lower"),
    layer("litho.litho_s", "s", "lower"),
    layer("dft.scan_s", "s", "lower"),
    layer("dft.atpg_s", "s", "lower"),
    layer("par.cpu_over_wall", "ratio", "higher"),
    layer("par.speedup_measured", "ratio", "higher"),
    layer("flow.self_s", "s", "lower"),
    layer("flow.cpu_s", "s", "lower"),
    layer("store.cold_s", "s", "lower"),
    layer("store.cold_overhead_s", "s", "lower"),
    layer("store.warm_s", "s", "lower"),
    layer("store.edit_route_s", "s", "lower"),
    layer("store.bytes_written", "B", "lower"),
    layer("store.stage_hits", "count", "higher"),
    layer("store.substage_hits", "count", "higher"),
    layer("store.substage_misses", "count", "lower"),
    layer("store.hit_ratio", "ratio", "higher"),
    layer("store.open_s", "s", "lower"),
    layer("store.put_mb_per_s", "MB/s", "higher"),
    layer("store.get_mb_per_s", "MB/s", "higher"),
    layer("store.put_at_capacity_ms", "ms", "lower"),
    layer("daemon.rtt_mult_s", "s", "lower"),
    layer("daemon.rtt_fabric_s", "s", "lower"),
    layer("daemon.run_s", "s", "lower"),
    layer("daemon.overhead_s", "s", "lower"),
    layer("daemon.rejected", "count", "lower"),
    layer("daemon.utilization", "ratio", "higher"),
    layer("server.batch4_s", "s", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
    layer("host.calib_ratio", "ratio", "lower"),
];

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Per-layer samples collected during a traced run; each metric reports
/// the median of its samples.
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Adds one sample. Panics on a name that is not in [`PER_LAYER`]: a
    /// misspelt metric must not silently read 0.
    pub fn add(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unknown per-layer metric `{name}`"
        );
        self.samples.entry(name).or_default().push(value);
    }

    pub fn value(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| median(v))
    }
}
