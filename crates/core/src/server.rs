//! A deterministic multi-design flow server: many designs, one flow, one
//! shared stage cache.
//!
//! The panel's forward-looking claims treat EDA as a *service* — exploit
//! previous runs, push many designs through one flow, make throughput the
//! scaling lever. This module is that entry point: a [`FlowServer`] accepts
//! a batch of [`FlowRequest`]s (design + config + priority), runs them
//! concurrently on a bounded worker pool, and returns [`FlowResponse`]s
//! carrying the existing [`FlowReport`] / [`PartialFlow`] / telemetry
//! surfaces unchanged.
//!
//! # Scheduling
//!
//! [`FlowServer::serve`] pushes the batch into the request scheduler it
//! shares with the flow daemon (`sched.rs`: one queue ordered by `(priority
//! desc, submission order)`), closes it, and runs `workers` threads that
//! each pop the next request until the queue is empty. Which worker
//! executes a request (and therefore `server.queue_depth` and all wall
//! clocks) depends on host timing; **which results come back does not**.
//!
//! # Determinism
//!
//! Every request runs the same flow that a serial [`run_flow`] caller would
//! invoke, and the flow is bit-identical for any thread count. A shared
//! flow store cannot break this: store records are written atomically
//! and replay bit-identically, so whether a request computes a stage or
//! replays a sibling's entry, the QoR is the same
//! ([`FlowReport::same_qor`]). Batch results are therefore bit-identical to
//! serial per-design runs at any worker count — pop order may vary,
//! outputs may not.
//!
//! # Thread budget
//!
//! One global `threads` knob is split between inter-design workers and
//! intra-stage kernels, by the same rule the daemon uses: with a resolved
//! budget `T` and `W` workers, each request's kernels get `max(1, T / W)`
//! threads. By default the server spends half the budget on workers
//! (`W = min(batch, max(1, T / 2))`) and the rest inside each flow.
//!
//! # Fault isolation
//!
//! A fault, timeout, or budget exhaustion inside one request degrades only
//! that request: its [`FlowResponse::outcome`] carries the typed
//! [`FlowError`] (with salvageable [`PartialFlow`]), recovered degradations
//! surface as stage statuses in its report, and every other request is
//! untouched.
//!
//! # Examples
//!
//! ```
//! use eda_core::server::{FlowRequest, FlowServer};
//! use eda_core::FlowConfig;
//! use eda_netlist::generate;
//! use eda_tech::Node;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = generate::ripple_carry_adder(4)?;
//! let cfg = FlowConfig { name: "demo".into(), node: Node::N28, threads: 1, ..FlowConfig::default() };
//! let server = FlowServer::builder().threads(2).build();
//! let batch = vec![
//!     FlowRequest::new(design.clone(), cfg.clone()).with_priority(1),
//!     FlowRequest::new(design, cfg),
//! ];
//! let report = server.serve(batch);
//! assert_eq!(report.responses.len(), 2);
//! assert!(report.responses.iter().all(|r| r.outcome.is_ok()));
//! # Ok(())
//! # }
//! ```

use crate::config::FlowConfig;
use crate::flow::{run_flow_shared, FlowError, STAGES};
use crate::report::FlowReport;
use crate::sched::{split_budget, Scheduler};
use crate::store::{FlowStore, StoreConfig};
use crate::telemetry::{Histogram, Metric, Span, SpanKind, TelemetrySnapshot, WallSpan};
use eda_netlist::Netlist;
use std::collections::BTreeMap;
use std::time::Instant;

#[allow(unused_imports)] // rustdoc link targets only.
use crate::flow::{run_flow, PartialFlow};

/// Bucket edges for the `server.queue_depth` histogram.
const QUEUE_DEPTH_EDGES: [f64; 7] = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// One design submitted to the server: what to run, how, and how urgently.
#[derive(Debug, Clone)]
pub struct FlowRequest {
    /// The design to push through the flow.
    pub design: Netlist,
    /// The flow configuration. The server overrides `threads` with its
    /// kernel share of the global budget and, when it has a store,
    /// points the request at the shared flow store; every QoR-relevant knob
    /// is taken as-is.
    pub config: FlowConfig,
    /// Scheduling priority: higher runs earlier; ties keep submission order.
    pub priority: i32,
}

impl FlowRequest {
    /// A request at the default priority (0).
    pub fn new(design: Netlist, config: FlowConfig) -> FlowRequest {
        FlowRequest { design, config, priority: 0 }
    }

    /// Sets the scheduling priority (higher runs earlier).
    pub fn with_priority(mut self, priority: i32) -> FlowRequest {
        self.priority = priority;
        self
    }
}

/// The server's answer for one request, in submission order.
#[derive(Debug)]
pub struct FlowResponse {
    /// Submission index of the originating request.
    pub index: usize,
    /// Design name (kept even when the flow fails).
    pub design: String,
    /// Priority the request ran at.
    pub priority: i32,
    /// Worker that executed the request (timing-dependent).
    pub worker: usize,
    /// Requests still queued when this one was dequeued.
    pub queue_depth: usize,
    /// Seconds after the batch started that this request began executing.
    pub start_s: f64,
    /// Wall-clock seconds this request spent executing.
    pub wall_s: f64,
    /// The flow result: a full [`FlowReport`], or the typed [`FlowError`]
    /// (carrying salvageable [`PartialFlow`]) if this request — and only
    /// this request — failed.
    pub outcome: Result<FlowReport, FlowError>,
}

impl FlowResponse {
    /// The report, when the flow completed.
    pub fn report(&self) -> Option<&FlowReport> {
        self.outcome.as_ref().ok()
    }

    /// The error, when the flow failed.
    pub fn error(&self) -> Option<&FlowError> {
        self.outcome.as_ref().err()
    }
}

/// Builder for [`FlowServer`].
#[derive(Debug, Clone, Default)]
pub struct FlowServerBuilder {
    threads: usize,
    workers: usize,
    store: Option<StoreConfig>,
}

impl FlowServerBuilder {
    /// Global thread budget shared by workers and kernels (`0` = all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Inter-design workers (`0` = auto: half the resolved budget, capped at
    /// the batch size).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Shared flow store, overriding every request's store so common flow
    /// prefixes across requests replay instead of recompute and every
    /// request's provenance lands in one queryable file.
    pub fn store(mut self, store: StoreConfig) -> Self {
        self.store = Some(store);
        self
    }

    /// Produces the server.
    pub fn build(self) -> FlowServer {
        FlowServer { threads: self.threads, workers: self.workers, store: self.store }
    }
}

/// A multi-design flow server: a bounded worker pool over one request
/// queue and a shared stage cache. See the [module docs](self) for the
/// scheduling and determinism contract.
#[derive(Debug, Clone)]
pub struct FlowServer {
    threads: usize,
    workers: usize,
    store: Option<StoreConfig>,
}

impl FlowServer {
    /// A builder with an all-cores budget, auto worker split, and no shared
    /// cache.
    pub fn builder() -> FlowServerBuilder {
        FlowServerBuilder::default()
    }

    /// Executes the batch on scoped worker threads and returns every
    /// response (submission order) plus the server-level telemetry.
    pub fn serve(&self, requests: Vec<FlowRequest>) -> ServerReport {
        let n = requests.len();
        let (workers, kernel_threads) = split_budget(self.threads, self.workers, n);
        let store = FlowStore::open_shared(self.store.as_ref());
        let queue = Scheduler::new(n);
        for (index, mut req) in requests.into_iter().enumerate() {
            req.config.threads = kernel_threads;
            if let Some(sc) = &self.store {
                req.config.store = Some(sc.clone());
            }
            queue
                .push(i64::from(req.priority), (index, req))
                .expect("the queue is open and bounded by the batch length");
        }
        queue.close();
        let epoch = Instant::now();

        let mut responses: Vec<FlowResponse> = std::thread::scope(|scope| {
            let pool: Vec<_> = (0..workers)
                .map(|worker| {
                    let (queue, store) = (&queue, &store);
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        while let Some(((index, req), queue_depth)) = queue.pop() {
                            let start_s = epoch.elapsed().as_secs_f64();
                            let t0 = Instant::now();
                            let outcome =
                                run_flow_shared(&req.design, &req.config, None, store.clone());
                            done.push(FlowResponse {
                                index,
                                design: req.design.name().to_string(),
                                priority: req.priority,
                                worker,
                                queue_depth,
                                start_s,
                                wall_s: t0.elapsed().as_secs_f64(),
                                outcome,
                            });
                        }
                        done
                    })
                })
                .collect();
            pool.into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect()
        });
        let wall_s = epoch.elapsed().as_secs_f64();
        responses.sort_by_key(|r| r.index);

        // Within one run a flow never reads an entry it wrote, so every hit
        // here came from another request (or an earlier occupant of the
        // shared store).
        let cross_design_hits = responses
            .iter()
            .filter_map(FlowResponse::report)
            .map(|report| counter(&report.telemetry, "cache.hits"))
            .sum();
        let telemetry =
            server_snapshot(&responses, wall_s, workers, kernel_threads, cross_design_hits);
        ServerReport { responses, telemetry, wall_s, workers, kernel_threads, cross_design_hits }
    }
}

/// Everything one batch produced: per-request responses plus server-level
/// telemetry and scheduling counters.
#[derive(Debug)]
pub struct ServerReport {
    /// One response per request, in submission order.
    pub responses: Vec<FlowResponse>,
    /// Server-level snapshot: a root span, one span per request, and the
    /// `server.queue_depth` / `cache.cross_design_hits`
    /// metrics. Unlike a flow's own snapshot, the scheduling metrics here
    /// are timing-shaped and not golden-pinned.
    pub telemetry: TelemetrySnapshot,
    /// Wall-clock seconds for the whole batch.
    pub wall_s: f64,
    /// Inter-design workers used.
    pub workers: usize,
    /// Kernel threads each request ran with.
    pub kernel_threads: usize,
    /// Stage-cache hits against entries the hitting request did not itself
    /// write — the shared-cache amortization across the batch.
    pub cross_design_hits: u64,
}

impl ServerReport {
    /// Requests whose flow failed (each carries its own typed error).
    pub fn failed(&self) -> usize {
        self.responses.iter().filter(|r| r.outcome.is_err()).count()
    }

    /// Completed requests per wall-clock second.
    pub fn throughput_per_s(&self) -> f64 {
        self.responses.len() as f64 / self.wall_s.max(1e-12)
    }

    /// Cross-request cache hits as a fraction of the batch's nominal stage
    /// visits (`requests × stages`).
    pub fn cross_hit_rate(&self) -> f64 {
        if self.responses.is_empty() {
            return 0.0;
        }
        self.cross_design_hits as f64 / (self.responses.len() * STAGES.len()) as f64
    }
}

fn counter(snapshot: &TelemetrySnapshot, name: &str) -> u64 {
    match snapshot.metrics.get(name) {
        Some(Metric::Counter(v)) => *v,
        _ => 0,
    }
}

/// Assembles the server-level snapshot after the pool joins. The collector
/// type (`Telemetry`) is single-threaded by design, so the server builds its
/// snapshot directly: span structure and tags stay deterministic (submission
/// order, design names, priorities, outcomes); worker identity and queue
/// depths are timing-shaped and live in the wall section and the scheduling
/// metrics.
fn server_snapshot(
    responses: &[FlowResponse],
    wall_s: f64,
    workers: usize,
    kernel_threads: usize,
    cross_design_hits: u64,
) -> TelemetrySnapshot {
    let mut spans = Vec::with_capacity(responses.len() + 1);
    let mut wall = Vec::with_capacity(responses.len() + 1);
    spans.push(Span {
        id: 0,
        parent: None,
        kind: SpanKind::Flow,
        name: "server".into(),
        tags: BTreeMap::from([("requests".into(), responses.len().to_string())]),
    });
    wall.push(WallSpan {
        start_s: 0.0,
        dur_s: wall_s,
        threads: workers,
        busy_s: Vec::new(),
        peak_rss_bytes: crate::telemetry::read_peak_rss_bytes(),
    });
    for r in responses {
        let outcome = match &r.outcome {
            Ok(report) if report.stage_status.values().all(|s| s.is_clean()) => "ok".to_string(),
            Ok(_) => "degraded".to_string(),
            Err(e) => format!("failed:{}", e.stage()),
        };
        spans.push(Span {
            id: spans.len(),
            parent: Some(0),
            kind: SpanKind::Stage,
            name: format!("request:{}", r.index),
            tags: BTreeMap::from([
                ("design".into(), r.design.clone()),
                ("priority".into(), r.priority.to_string()),
                ("outcome".into(), outcome),
            ]),
        });
        wall.push(WallSpan {
            start_s: r.start_s,
            dur_s: r.wall_s,
            threads: kernel_threads,
            busy_s: Vec::new(),
            peak_rss_bytes: crate::telemetry::read_peak_rss_bytes(),
        });
    }
    let mut depth = Histogram::new(&QUEUE_DEPTH_EDGES);
    for r in responses {
        depth.observe(r.queue_depth as f64);
    }
    let metrics = BTreeMap::from([
        ("cache.cross_design_hits".to_string(), Metric::Counter(cross_design_hits)),
        ("server.queue_depth".to_string(), Metric::Histogram(depth)),
        ("server.requests".to_string(), Metric::Counter(responses.len() as u64)),
        ("server.workers".to_string(), Metric::Gauge(workers as f64)),
    ]);
    TelemetrySnapshot { spans, metrics, wall }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_netlist::generate;
    use eda_tech::Node;

    fn tiny_request(priority: i32) -> FlowRequest {
        let design = generate::ripple_carry_adder(2).expect("generator is valid");
        FlowRequest::new(design, FlowConfig::basic_2006(Node::N90)).with_priority(priority)
    }

    #[test]
    fn one_worker_runs_priority_first_then_submission_order() {
        let server = FlowServer::builder().threads(1).workers(1).build();
        let report =
            server.serve(vec![tiny_request(0), tiny_request(5), tiny_request(5), tiny_request(9)]);
        assert_eq!((report.workers, report.kernel_threads), (1, 1));
        let mut ran: Vec<&FlowResponse> = report.responses.iter().collect();
        ran.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        let order: Vec<usize> = ran.iter().map(|r| r.index).collect();
        assert_eq!(order, vec![3, 1, 2, 0]);
        let depths: Vec<usize> = ran.iter().map(|r| r.queue_depth).collect();
        assert_eq!(depths, vec![3, 2, 1, 0], "depth is what each pop left behind");
    }

    #[test]
    fn empty_batch_returns_an_empty_report() {
        let report = FlowServer::builder().threads(2).build().serve(Vec::new());
        assert!(report.responses.is_empty());
        assert_eq!(report.failed(), 0);
        assert_eq!(report.cross_design_hits, 0);
        assert_eq!(report.cross_hit_rate(), 0.0);
        assert_eq!(report.telemetry.spans.len(), 1, "just the root server span");
    }

    #[test]
    fn responses_come_back_in_submission_order_with_spans() {
        let server = FlowServer::builder().threads(2).build();
        let report = server.serve(vec![tiny_request(0), tiny_request(7)]);
        assert_eq!(report.responses.len(), 2);
        for (i, r) in report.responses.iter().enumerate() {
            assert_eq!(r.index, i);
            assert!(r.outcome.is_ok());
        }
        assert_eq!(report.telemetry.spans.len(), 3);
        assert_eq!(report.telemetry.spans[1].name, "request:0");
        assert_eq!(report.telemetry.spans[2].name, "request:1");
        assert_eq!(
            report.telemetry.metrics.get("server.requests"),
            Some(&Metric::Counter(2))
        );
        assert!(matches!(
            report.telemetry.metrics.get("server.queue_depth"),
            Some(Metric::Histogram(h)) if h.samples() == 2
        ));
    }
}
