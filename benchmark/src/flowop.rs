//! One `run_flow` call as the benchmark sees it: wall and CPU seconds
//! around the public call and, in a traced run, a span per stage cut at the
//! boundaries a `run_flow_observed` observer reports.

use crate::host::process_cpu_s;
use crate::metrics::Layers;
use crate::trace::Tracer;
use eda::core::{run_flow_observed, FlowConfig, FlowError, FlowReport, Metric, STAGES};
use eda::netlist::Netlist;
use std::sync::{Arc, Mutex};

/// What one flow run cost and produced.
pub struct FlowRun {
    pub report: FlowReport,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Seconds per per-layer stage metric, cut at the observed stage
    /// boundaries (empty in an untraced run).
    pub stage_s: Vec<(&'static str, f64)>,
    /// Seconds between the last stage boundary and the call's return (0 in
    /// an untraced run).
    pub tail_s: f64,
}

/// The per-layer metric and trace layer a flow stage's time belongs to.
pub fn stage_layer(stage: &str) -> (&'static str, &'static str) {
    match stage {
        "1_synthesis" => ("logic.synthesis_s", "logic"),
        "2_clock_gating" => ("power.clock_gating_s", "power"),
        "3_scan" | "5_scan_reorder" => ("dft.scan_s", "dft"),
        "4_place" => ("place.place_s", "place"),
        "6_cts" => ("place.cts_s", "place"),
        "6_sta" => ("sta.sta_s", "sta"),
        "7_route" => ("route.route_s", "route"),
        "8_litho" => ("litho.litho_s", "litho"),
        "9_power" => ("power.analysis_s", "power"),
        "10_dft" => ("dft.atpg_s", "dft"),
        _ => ("flow.self_s", "flow"),
    }
}

/// Adds `s` seconds to `metric`'s running sum.
pub fn accumulate(sums: &mut Vec<(&'static str, f64)>, metric: &'static str, s: f64) {
    match sums.iter_mut().find(|(m, _)| *m == metric) {
        Some((_, sum)) => *sum += s,
        None => sums.push((metric, s)),
    }
}

/// Turns stage-boundary timestamps into per-stage spans under `parent` and
/// returns seconds per per-layer metric. `boundaries` holds
/// `(stage, time it finished)` in arrival order; a stage's span runs from
/// the previous boundary (or `start_s`) to its own.
pub fn record_stage_spans(
    tr: &Tracer,
    parent: Option<usize>,
    op: u64,
    start_s: f64,
    boundaries: &[(String, f64)],
) -> Vec<(&'static str, f64)> {
    let mut per_metric: Vec<(&'static str, f64)> = Vec::new();
    let mut prev = start_s;
    for (stage, at) in boundaries {
        let (metric, layer) = stage_layer(stage);
        tr.record(stage, layer, prev, *at, parent, op);
        accumulate(&mut per_metric, metric, at - prev);
        prev = *at;
    }
    per_metric
}

/// Runs the flow once. With tracing off this is a plain `run_flow` (no
/// observer installed). With tracing on, an observer timestamps every stage
/// boundary and the stage spans hang under a `name` span.
pub fn run(
    tr: &Tracer,
    name: &str,
    parent: Option<usize>,
    op: u64,
    design: &Netlist,
    cfg: &FlowConfig,
) -> Result<FlowRun, FlowError> {
    let boundaries: Arc<Mutex<Vec<(String, f64)>>> = Arc::default();
    let span = tr.open(name, "flow", parent, op);
    let observer: Option<eda::core::telemetry::ProgressFn> = if tr.enabled() {
        let sink = Arc::clone(&boundaries);
        let epoch = std::time::Instant::now();
        let base = tr.now();
        Some(Box::new(move |stage, _outcome, _attempts| {
            let at = base + epoch.elapsed().as_secs_f64();
            sink.lock()
                .expect("observer never panics while holding the lock")
                .push((stage.to_string(), at));
        }))
    } else {
        None
    };
    let start_s = tr.now();
    let cpu0 = process_cpu_s();
    let result = run_flow_observed(design, cfg, observer);
    let wall_s = tr.now() - start_s;
    let cpu_s = process_cpu_s() - cpu0;
    tr.close(span);
    let report = result?;
    let boundaries = boundaries
        .lock()
        .expect("observer never panics while holding the lock");
    let stage_s = record_stage_spans(tr, span, op, start_s, &boundaries);
    let tail_s = boundaries
        .last()
        .map_or(0.0, |(_, at)| start_s + wall_s - at);
    Ok(FlowRun {
        report,
        wall_s,
        cpu_s,
        stage_s,
        tail_s,
    })
}

/// Adds one op's flow runs to `layers` as one sample per metric: stage
/// seconds summed over the runs, plus `flow.self_s` (op wall minus the
/// stage spans, i.e. what follows the last stage: final store writes,
/// provenance rows, report and telemetry assembly), `flow.cpu_s` and
/// `par.cpu_over_wall`. Work between two stages (state hashing, cache
/// probe and store) lands in the later stage's span: the observer only
/// sees boundaries.
pub fn add_runs(layers: &mut Layers, runs: &[&FlowRun]) {
    let mut per_metric: Vec<(&'static str, f64)> = Vec::new();
    for (metric, s) in runs.iter().flat_map(|r| r.stage_s.iter()) {
        accumulate(&mut per_metric, metric, *s);
    }
    for (metric, s) in per_metric {
        layers.add(metric, s);
    }
    let wall_s: f64 = runs.iter().map(|r| r.wall_s).sum();
    let cpu_s: f64 = runs.iter().map(|r| r.cpu_s).sum();
    layers.add("flow.self_s", runs.iter().map(|r| r.tail_s).sum());
    layers.add("flow.cpu_s", cpu_s);
    layers.add("par.cpu_over_wall", cpu_s / wall_s);
}

/// The invariant checks every flow op shares: all 11 stages recorded a
/// status and routing closed.
pub fn clean(report: &FlowReport) -> bool {
    report.overflow == 0 && STAGES.iter().all(|s| report.stage_status.contains_key(*s))
}

/// A telemetry counter of a report (0 when absent).
pub fn counter(report: &FlowReport, name: &str) -> u64 {
    match report.telemetry.metrics.get(name) {
        Some(Metric::Counter(n)) => *n,
        _ => 0,
    }
}
