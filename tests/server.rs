//! Flow-server contract: a batch served through the worker pool is
//! bit-identical to running each request sequentially, at every worker
//! count; a fault in one request degrades only that request; and repeated
//! requests replay their siblings' stage-cache entries, at one worker and at
//! two.
//!
//! Scheduling-shaped observables (which worker ran what, queue depths) may
//! vary run to run — these tests only pin the invariants the server
//! promises: submission-order responses, `same_qor` against the sequential
//! runs, typed per-request errors, and cache accounting.

use eda_core::{
    run_flow, Fault, FaultPlan, FlowConfig, FlowError, FlowReport, FlowRequest, FlowServer,
    Metric, Span, SpanKind, StoreConfig, WallSpan, STAGES,
};
use eda_netlist::{generate, Netlist};
use eda_tech::Node;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A scratch cache directory, unique per test and per process.
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("eda_serve_{}_{tag}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn smoke_cfg() -> FlowConfig {
    let mut cfg = FlowConfig::advanced_2016(Node::N10);
    cfg.threads = 1;
    cfg
}

fn counter(report: &FlowReport, name: &str) -> u64 {
    match report.telemetry.metrics.get(name) {
        Some(Metric::Counter(n)) => *n,
        _ => 0,
    }
}

/// Three genuinely different smoke designs, plus their shared config.
fn mixed_batch() -> Vec<FlowRequest> {
    let cfg = smoke_cfg();
    vec![
        FlowRequest::new(generate::switch_fabric(3, 3).unwrap(), cfg.clone()),
        FlowRequest::new(generate::parity_tree(16).unwrap(), cfg.clone()),
        FlowRequest::new(generate::ripple_carry_adder(16).unwrap(), cfg),
    ]
}

/// The sequential ground truth for a batch: each request run on its own,
/// same config, no shared state.
fn sequential(requests: &[FlowRequest]) -> Vec<FlowReport> {
    requests
        .iter()
        .map(|r| run_flow(&r.design, &r.config).unwrap())
        .collect()
}

#[test]
fn batch_is_bit_identical_to_sequential_at_every_worker_count() {
    let requests = mixed_batch();
    let serial = sequential(&requests);
    let dir = scratch("workers");
    for workers in [1usize, 2, 4, 8] {
        let server = FlowServer::builder()
            .threads(workers)
            .workers(workers)
            .store(StoreConfig::at(dir.join("flow.store")))
            .build();
        let report = server.serve(requests.clone());
        assert_eq!(report.workers, workers.min(requests.len()));
        assert_eq!(report.responses.len(), requests.len());
        assert_eq!(report.failed(), 0);
        for (i, resp) in report.responses.iter().enumerate() {
            assert_eq!(resp.index, i, "responses come back in submission order");
            assert_eq!(resp.design, requests[i].design.name());
            let flow = resp.report().expect("request succeeded");
            assert!(
                flow.same_qor(&serial[i]),
                "request {i} at {workers} workers must match its sequential run"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_in_one_request_degrades_only_that_request() {
    let mut requests = mixed_batch();
    // Fail routing on every attempt for the middle request only: its
    // two-attempt budget exhausts and the request dies with a typed error.
    requests[1].config.fault_plan = Some(FaultPlan::new(7).with("route", None, Fault::Fail));
    let serial_ok = [
        run_flow(&requests[0].design, &requests[0].config).unwrap(),
        run_flow(&requests[2].design, &requests[2].config).unwrap(),
    ];

    let server = FlowServer::builder().threads(2).workers(2).build();
    let report = server.serve(requests);
    assert_eq!(report.failed(), 1, "exactly the faulted request fails");

    let failed = &report.responses[1];
    match failed.error().expect("the faulted request must fail") {
        FlowError::BudgetExhausted { stage, partial, .. } => {
            assert_eq!(*stage, "7_route");
            assert!(
                partial.statuses.contains_key("1_synthesis"),
                "the partial flow keeps the stages that finished before the fault"
            );
        }
        other => panic!("expected BudgetExhausted, got {other}"),
    }

    // The siblings are untouched: same QoR as their solo runs.
    let ok0 = report.responses[0].report().expect("request 0 unaffected");
    let ok2 = report.responses[2].report().expect("request 2 unaffected");
    assert!(ok0.same_qor(&serial_ok[0]));
    assert!(ok2.same_qor(&serial_ok[1]));
}

#[test]
fn repeated_request_replays_the_shared_cache() {
    // Each row serves distinct primaries at priority 1, then one repeat of
    // each at priority 0, over a fresh store. Primaries queue ahead of every
    // repeat, so a repeat is popped only once some primary has finished, and
    // the repeat of the first primary to finish is popped after it: at least
    // that one replays its primary's entries. One worker executes the batch
    // strictly in order, so there every primary runs cold and the repeat is
    // a full warm replay. At two workers a repeat can be popped while its
    // own primary still runs, and each of the pair may then replay stages
    // the other wrote first — but a stage is computed by one of them and
    // replayed by at most the other.
    let rows = [
        (1usize, vec![generate::switch_fabric(3, 3).unwrap()]),
        (2, vec![generate::switch_fabric(3, 3).unwrap(), generate::parity_tree(16).unwrap()]),
    ];
    for (workers, designs) in rows {
        let primaries: Vec<FlowRequest> = designs
            .into_iter()
            .map(|d| FlowRequest::new(d, smoke_cfg()).with_priority(1))
            .collect();
        let serial = sequential(&primaries);
        let n = primaries.len();
        let mut requests = primaries.clone();
        requests.extend(primaries.into_iter().map(|p| p.with_priority(0)));
        let dir = scratch("warm");
        let store = StoreConfig::at(dir.join("flow.store"));
        let server = FlowServer::builder().threads(workers).workers(workers).store(store).build();
        let report = server.serve(requests);

        assert_eq!(report.workers, workers);
        assert_eq!(report.failed(), 0);
        for (i, resp) in report.responses.iter().enumerate() {
            let flow = resp.report().unwrap();
            assert!(
                flow.same_qor(&serial[i % n]),
                "request {i} at {workers} workers must match its sequential run"
            );
        }
        let hits = |i: usize| counter(report.responses[i].report().unwrap(), "cache.hits");
        for i in 0..n {
            if workers == 1 {
                assert_eq!(hits(i), 0, "primary {i} runs cold");
            } else {
                assert!(
                    hits(i) + hits(i + n) <= STAGES.len() as u64,
                    "design {i}: primary and repeat replay {} + {} stages",
                    hits(i),
                    hits(i + n)
                );
            }
        }
        assert!(report.cross_design_hits >= 1, "no repeat replayed at {workers} workers");
        if workers == 1 {
            assert_eq!(
                report.cross_design_hits,
                STAGES.len() as u64,
                "the repeat must replay every stage from the primary's entries"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn stage_speedups_stay_within_wall_clock_bounds() {
    // Regression for the placer's 8+-worker super-unity projections: every
    // parallel dispatch's recorded speedup must sit inside [1, the workers it
    // ran on] — a projection can never beat the workers it ran on. Kernel
    // spans with `threads == 0` (synthesis passes and the like) dispatched
    // no workers and record no speedup.
    let design = generate::switch_fabric(3, 3).unwrap();
    let mut cfg = FlowConfig::advanced_2016(Node::N10);
    cfg.threads = 8;
    let report = run_flow(&design, &cfg).unwrap();
    let tel = &report.telemetry;
    let is_dispatch = |(span, wall): &(&Span, &WallSpan)| span.kind == SpanKind::Kernel && wall.threads > 0;
    let dispatches: Vec<_> = tel.spans.iter().zip(&tel.wall).filter(is_dispatch).collect();
    assert!(!dispatches.is_empty(), "the placer's stripe dispatch reports a speedup");
    for (span, wall) in dispatches {
        let granted = wall.threads as f64;
        assert!(
            (1.0..=granted).contains(&wall.speedup),
            "{}: projected speedup {:.3} outside [1, {granted}]",
            span.name,
            wall.speedup
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Any batch of perturbed netlists: serving it matches running it.
    #[test]
    fn served_batch_matches_sequential_for_arbitrary_netlists(
        gates in 40usize..120,
        design_seed in 0u64..1_000,
        batch in 2usize..5,
    ) {
        let requests: Vec<FlowRequest> = (0..batch)
            .map(|i| {
                let design: Netlist = generate::random_logic(generate::RandomLogicConfig {
                    gates: gates + 7 * i,
                    seed: design_seed + i as u64,
                    ..Default::default()
                })
                .unwrap();
                FlowRequest::new(design, smoke_cfg())
            })
            .collect();
        let serial = sequential(&requests);
        let dir = scratch("prop");
        let store = StoreConfig::at(dir.join("flow.store"));
        let server = FlowServer::builder().threads(4).store(store).build();
        let report = server.serve(requests);
        prop_assert_eq!(report.failed(), 0);
        for (i, resp) in report.responses.iter().enumerate() {
            let flow = resp.report().expect("request succeeded");
            prop_assert!(flow.same_qor(&serial[i]), "request {} diverged", i);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
