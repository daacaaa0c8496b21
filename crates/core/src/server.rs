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
//! [`FlowServer::serve`] submits the batch to the engine it shares with the
//! flow daemon (`engine.rs`: one queue ordered by `(priority desc,
//! submission order)`, one worker loop, one thread-budget split, one store
//! open), closes it, starts `workers` threads that each pop the next request
//! until the queue is empty, and joins them. Which worker executes a request
//! (and therefore [`FlowResponse::queue_depth`] and all wall clocks) depends
//! on host timing; **which results come back does not**.
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
use crate::engine::{Engine, Popped};
use crate::flow::FlowError;
use crate::report::FlowReport;
use crate::store::StoreConfig;
use crate::telemetry::{Metric, TelemetrySnapshot};
use eda_netlist::Netlist;
use std::sync::mpsc;
use std::time::Instant;

#[allow(unused_imports)] // rustdoc link targets only.
use crate::flow::{run_flow, PartialFlow};

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

    /// Executes the batch on the engine's workers and returns every
    /// response (submission order) plus the scheduling counters.
    pub fn serve(&self, requests: Vec<FlowRequest>) -> ServerReport {
        let n = requests.len();
        let engine = Engine::new(self.threads, self.workers, n, n, self.store.clone());
        let (done, finished) = mpsc::channel();
        let epoch = Instant::now();
        for (index, req) in requests.into_iter().enumerate() {
            let done = done.clone();
            let job = move |engine: &Engine, popped: Popped| {
                let start_s = epoch.elapsed().as_secs_f64();
                let t0 = Instant::now();
                let outcome = engine.run_flow(&popped, &req.design, req.config, None, None);
                let response = FlowResponse {
                    index,
                    design: req.design.name().to_string(),
                    priority: req.priority,
                    worker: popped.worker,
                    queue_depth: popped.queue_depth,
                    start_s,
                    wall_s: t0.elapsed().as_secs_f64(),
                    outcome,
                };
                done.send(response).expect("the batch outlives its workers");
            };
            engine
                .submit(i64::from(req.priority), job)
                .expect("the queue is open and bounded by the batch length");
        }
        // The whole batch is queued before a worker exists, so pops follow
        // (priority desc, submission order) exactly.
        engine.close();
        let workers = engine.start().expect("spawn the server's workers");
        let panics: Vec<_> = workers.into_iter().filter_map(|w| w.join().err()).collect();
        if let Some(panic) = panics.into_iter().next() {
            std::panic::resume_unwind(panic);
        }
        let wall_s = epoch.elapsed().as_secs_f64();
        let mut responses: Vec<FlowResponse> = finished.try_iter().collect();
        responses.sort_by_key(|r| r.index);

        // Within one run a flow never reads an entry it wrote, so every hit
        // here came from another request (or an earlier occupant of the
        // shared store).
        let cross_design_hits = responses
            .iter()
            .filter_map(FlowResponse::report)
            .map(|report| counter(&report.telemetry, "cache.hits"))
            .sum();
        ServerReport {
            responses,
            wall_s,
            workers: engine.workers(),
            kernel_threads: engine.kernel_threads(),
            cross_design_hits,
        }
    }
}

/// Everything one batch produced: per-request responses plus scheduling
/// counters.
#[derive(Debug)]
pub struct ServerReport {
    /// One response per request, in submission order.
    pub responses: Vec<FlowResponse>,
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
}

fn counter(snapshot: &TelemetrySnapshot, name: &str) -> u64 {
    match snapshot.metrics.get(name) {
        Some(Metric::Counter(v)) => *v,
        _ => 0,
    }
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
    }

    #[test]
    fn responses_come_back_in_submission_order() {
        let server = FlowServer::builder().threads(2).build();
        let report = server.serve(vec![tiny_request(0), tiny_request(7)]);
        assert_eq!(report.responses.len(), 2);
        for (i, r) in report.responses.iter().enumerate() {
            assert_eq!(r.index, i);
            assert!(r.outcome.is_ok());
        }
    }
}
