//! The integrated RTL-to-layout flow: the panel's "advanced EDA solution"
//! as one callable pipeline, executed under a supervising harness.
//!
//! Stages: synthesis → clock gating → scan insertion → placement →
//! scan reordering → clock-tree synthesis → timing → routing → lithography
//! decomposition + OPC → power analysis → test-coverage estimation. Every
//! stage runs inside the [`harness`](crate::harness) supervisor: it gets a
//! budget, a typed [`StageStatus`](crate::harness::StageStatus) in the
//! report, and a recovery policy (see DESIGN.md §7 for the full table):
//!
//! * an inconclusive equivalence check escalates the simulation budget once
//!   (2²² nodes), then records `Degraded` instead of silently reporting
//!   "not verified";
//! * routing that still overflows after its rip-up budget degrades to
//!   partial routes (no escalation: a coarser grid has less capacity);
//! * a decomposition that stays illegal or an OPC pass that misses its EPE
//!   target retries with a doubled stitch budget and a halved OPC gain;
//! * an IR-drop solve that stalls at the iteration cap retries with a
//!   relaxed tolerance;
//! * clock gating that fails keeps the ungated netlist and degrades.
//!
//! With `FlowConfig::checkpoint_dir` set, the supervisor serializes the full
//! flow state after every stage; a killed flow rerun with `resume: true`
//! restarts from the first incomplete stage and produces bit-identical QoR
//! ([`FlowReport::same_qor`]).

use crate::cache::{self, CacheError, StageCache};
use crate::checkpoint::{self, FlowState, LoadError};
use crate::config::FlowConfig;
use crate::harness::{StageCtx, StageStatus, StageTry, Supervisor};
use crate::report::FlowReport;
use crate::store::{FlowStore, Lookup, QorRow, StageRow, Store, Table};
use crate::telemetry::{SpanKind, Telemetry};
use eda_dft::{fault_list, fault_sim_threaded, insert_scan, random_patterns, reorder_chains, scan_wirelength, CombView};
use eda_litho::{decompose, run_opc_stats, Layout, OpcConfig, OpticalModel};
use eda_logic::{check_equivalence, synthesize, EcVerdict, SynthesisOptions};
use eda_netlist::memo::fnv1a;
use eda_netlist::{Netlist, NetlistStats, SubstageMemo};
use eda_place::{anneal, place_global, place_multilevel, plan_buffers, synthesize_clock_tree, AnnealConfig, CtsConfig, Die, GlobalConfig, MultilevelConfig, ParallelConfig};
use eda_power::{analyze, insert_clock_gating, insert_decaps, solve_ir_drop, Activity, ActivityConfig, MeshConfig, PowerConfig, PowerGrid};
use eda_route::{route_stats_memo, RouteConfig, RuleDeck};
use eda_sta::{TimingAnalysis, TimingConfig};
use eda_tech::PatterningPlan;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Every stage the supervisor runs, in execution order. Each key appears in
/// [`FlowReport::stage_status`] after any successful run.
pub const STAGES: [&str; 11] = [
    "1_synthesis",
    "2_clock_gating",
    "3_scan",
    "4_place",
    "5_scan_reorder",
    "6_cts",
    "6_sta",
    "7_route",
    "8_litho",
    "9_power",
    "10_dft",
];

/// RMS edge-placement error below which the flow's OPC pass counts as
/// converged, nm.
const OPC_RMS_EPE_LIMIT_NM: f64 = 4.0;

/// Simulation budgets for the synthesis equivalence check: the first
/// attempt, and the escalated retry after an inconclusive verdict.
const EC_BUDGET: usize = 1 << 19;
const EC_BUDGET_ESCALATED: usize = 1 << 22;

/// A hard failure inside one stage that no recovery policy can absorb.
#[derive(Debug)]
pub enum StageFailure {
    /// Synthesis failed.
    Synthesis(eda_logic::SynthesisError),
    /// A netlist transformation or traversal failed.
    Netlist(eda_netlist::NetlistError),
}

impl std::fmt::Display for StageFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageFailure::Synthesis(e) => write!(f, "{e}"),
            StageFailure::Netlist(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StageFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StageFailure::Synthesis(e) => Some(e),
            StageFailure::Netlist(e) => Some(e),
        }
    }
}

impl From<eda_logic::SynthesisError> for StageFailure {
    fn from(e: eda_logic::SynthesisError) -> Self {
        StageFailure::Synthesis(e)
    }
}

impl From<eda_netlist::NetlistError> for StageFailure {
    fn from(e: eda_netlist::NetlistError) -> Self {
        StageFailure::Netlist(e)
    }
}

/// Salvageable state carried by a flow error: everything completed before
/// the failure.
#[derive(Debug, Clone)]
pub struct PartialFlow {
    /// Statuses of every stage that finished (or was skipped) before the
    /// failure, keyed by stage name.
    pub statuses: BTreeMap<String, StageStatus>,
    /// The checkpoint holding the last good stage's state, when
    /// checkpointing is enabled — rerunning with `resume: true` continues
    /// from here.
    pub checkpoint: Option<PathBuf>,
}

/// Errors surfaced by the flow, carrying the failing stage and salvageable
/// partial state.
#[derive(Debug)]
pub enum FlowError {
    /// A stage hit a hard failure.
    Stage {
        /// The failing stage.
        stage: &'static str,
        /// The underlying failure.
        source: StageFailure,
        /// Everything completed before the failure.
        partial: Box<PartialFlow>,
    },
    /// A stage ran out of attempts (or blew its soft deadline) without
    /// producing an acceptable or salvageable result.
    BudgetExhausted {
        /// The exhausted stage.
        stage: &'static str,
        /// Attempts consumed.
        attempts: usize,
        /// Why the last attempt was rejected.
        reason: String,
        /// Everything completed before the failure.
        partial: Box<PartialFlow>,
    },
    /// Writing a checkpoint failed.
    Checkpoint {
        /// The stage whose state could not be saved.
        stage: &'static str,
        /// The I/O problem.
        reason: String,
    },
    /// The flow blew its wall-clock deadline
    /// ([`FlowConfig::deadline_s`](crate::config::FlowConfig::deadline_s)).
    /// Raised at a stage boundary — a running attempt always finishes, so a
    /// worker is never left hung — and carries everything completed before
    /// the deadline, including any checkpoint to resume from.
    DeadlineExceeded {
        /// The stage that was about to start when the deadline tripped.
        stage: &'static str,
        /// Wall-clock seconds the flow had consumed.
        elapsed_s: f64,
        /// The configured deadline.
        deadline_s: f64,
        /// Everything completed before the deadline.
        partial: Box<PartialFlow>,
    },
    /// `resume: true` found a checkpoint written under a different design
    /// or config.
    ResumeMismatch {
        /// The fingerprint mismatch details.
        reason: String,
    },
    /// `resume: true` found a checkpoint that does not parse.
    ResumeCorrupt {
        /// The parse problem.
        reason: String,
    },
}

impl FlowError {
    /// The stage the error is attributed to, if any.
    pub fn stage(&self) -> Option<&'static str> {
        match self {
            FlowError::Stage { stage, .. }
            | FlowError::BudgetExhausted { stage, .. }
            | FlowError::Checkpoint { stage, .. }
            | FlowError::DeadlineExceeded { stage, .. } => Some(stage),
            FlowError::ResumeMismatch { .. } | FlowError::ResumeCorrupt { .. } => None,
        }
    }

    /// The salvageable partial state, if the flow got far enough to have any.
    pub fn partial(&self) -> Option<&PartialFlow> {
        match self {
            FlowError::Stage { partial, .. }
            | FlowError::BudgetExhausted { partial, .. }
            | FlowError::DeadlineExceeded { partial, .. } => Some(partial),
            _ => None,
        }
    }
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Stage { stage, source, partial } => {
                write!(f, "stage `{stage}` failed after {} completed stage(s): {source}", partial.statuses.len())
            }
            FlowError::BudgetExhausted { stage, attempts, reason, .. } => {
                write!(f, "stage `{stage}` exhausted its budget after {attempts} attempt(s): {reason}")
            }
            FlowError::Checkpoint { stage, reason } => {
                write!(f, "failed to checkpoint stage `{stage}`: {reason}")
            }
            FlowError::DeadlineExceeded { stage, elapsed_s, deadline_s, partial } => {
                write!(
                    f,
                    "flow deadline exceeded before stage `{stage}`: {elapsed_s:.3} s elapsed against a {deadline_s:.3} s deadline, {} stage(s) completed",
                    partial.statuses.len()
                )
            }
            FlowError::ResumeMismatch { reason } => write!(f, "cannot resume: {reason}"),
            FlowError::ResumeCorrupt { reason } => write!(f, "cannot resume: corrupt checkpoint: {reason}"),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Stage { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Runs the full flow on a design under the stage supervisor.
///
/// # Errors
///
/// Returns a [`FlowError`] when a stage hard-fails ([`FlowError::Stage`]),
/// exhausts its attempt budget without a salvageable result
/// ([`FlowError::BudgetExhausted`]), or when checkpointing/resuming goes
/// wrong. Stage errors carry a [`PartialFlow`] with everything completed
/// before the failure.
pub fn run_flow(design: &Netlist, cfg: &FlowConfig) -> Result<FlowReport, FlowError> {
    run_flow_observed(design, cfg, None)
}

/// [`run_flow`] with an optional live per-stage progress observer: the
/// callback fires `(stage, outcome, attempts)` the moment each stage's
/// status is recorded, while the flow is still running. Observation-only —
/// installing an observer can never change the QoR. The flow daemon uses
/// this to stream stage events to clients mid-request.
pub fn run_flow_observed(
    design: &Netlist,
    cfg: &FlowConfig,
    observer: Option<crate::telemetry::ProgressFn>,
) -> Result<FlowReport, FlowError> {
    run_flow_shared(design, cfg, observer, None)
}

/// [`run_flow_observed`] with an optionally pre-opened flow store. The
/// server and daemon open the store once and pass the same `Arc` to every
/// worker, so concurrent requests share one index instead of each re-opening
/// (and re-scanning) the file; `None` opens [`FlowConfig::store`] per run.
pub(crate) fn run_flow_shared(
    design: &Netlist,
    cfg: &FlowConfig,
    observer: Option<crate::telemetry::ProgressFn>,
    shared_store: Option<Arc<FlowStore>>,
) -> Result<FlowReport, FlowError> {
    let threads = cfg.threads;
    let fp = checkpoint::fingerprint(design, cfg);
    // Telemetry collects for this run only: a resumed flow records spans
    // and metrics for the stages it actually reruns (checkpoints carry QoR
    // state, not telemetry), which is why `same_qor` ignores the snapshot.
    let tel = Telemetry::new();
    if let Some(obs) = observer {
        tel.set_observer(obs);
    }
    let mut sup = Supervisor::new(cfg.fault_plan.as_ref(), cfg.budgets.clone(), &tel, cfg.deadline_s);
    let mut st = FlowState::fresh();

    if let Some(dir) = &cfg.checkpoint_dir {
        if cfg.resume {
            match checkpoint::load(dir, design.name(), fp) {
                Ok(Some(loaded)) => {
                    sup.statuses = loaded.statuses.clone();
                    sup.checkpoint = Some(checkpoint::path_for(dir, design.name(), fp));
                    st = loaded;
                }
                Ok(None) => {}
                Err(LoadError::Mismatch(reason)) => return Err(FlowError::ResumeMismatch { reason }),
                Err(LoadError::Corrupt(reason)) => return Err(FlowError::ResumeCorrupt { reason }),
            }
        }
    }

    // The persistent flow store (DESIGN.md §14): stage cache, sub-stage
    // cache, and QoR provenance in one file. Disabled while a fault plan is
    // active: injected faults must exercise the real stage bodies, not
    // replay cached results. An unopenable store downgrades to an uncached
    // run (counted, never fatal).
    let store: Option<Arc<FlowStore>> = if cfg.fault_plan.is_some() {
        None
    } else {
        shared_store.or_else(|| {
            cfg.store.as_ref().and_then(|sc| match FlowStore::open(sc) {
                Ok(s) => Some(Arc::new(s)),
                Err(_) => {
                    tel.count("cache.open_errors", 1);
                    None
                }
            })
        })
    };
    let memo = StageMemo {
        cache: store.as_ref().map(|s| StageCache::new(s.clone())),
        cfg,
        design,
        fp,
    };
    // The sub-stage memo: per-AIG-pass and per-net entries that survive
    // edits which invalidate a whole stage. Probed only from this
    // (orchestrating) thread; misses still fan out to the parallel kernels.
    let sub = store.as_ref().map(|s| SubMemo::new(s.clone()));

    let mut timer = Timer::new();
    let lib = cfg.library.library();
    let flow_span = tel.span(SpanKind::Flow, "flow");
    flow_span.tag("flow", &cfg.name);
    flow_span.tag("design", design.name());
    flow_span.tag("node", cfg.node);

    // ---- 1: synthesis (+ optional equivalence check) ----
    let key = memo.begin("1_synthesis", 1, &mut st, &mut sup, &mut timer)?;
    if st.cursor < 1 {
        let stage = "1_synthesis";
        let (netlist, verified, par) = sup.run_stage(stage, |ctx: StageCtx<'_>| {
            let opts = SynthesisOptions {
                threads: cfg.threads,
                rewrite_passes: cfg.aig_rewrite_passes,
                memo: sub.as_ref().map(|s| s as &dyn SubstageMemo),
            };
            let synth = synthesize(design, lib.clone(), cfg.synthesis, cfg.map_goal, &opts)
                .map_err(StageFailure::Synthesis)?;
            let par = synth.par;
            ctx.tel.count("synth.aig_nodes_before", synth.aig_nodes_before as u64);
            ctx.tel.count("synth.aig_nodes_after", synth.aig_nodes_after as u64);
            ctx.tel.count("synth.cells", synth.cells as u64);
            ctx.tel.count("synth.cone_visits", synth.cone_visits);
            ctx.tel.count("synth.cuts_enumerated", synth.cuts_enumerated);
            for pass in &synth.passes {
                let span = ctx.tel.span(SpanKind::Kernel, &format!("aig:{}", pass.name));
                span.tag("nodes_before", pass.nodes_before);
                span.tag("nodes_after", pass.nodes_after);
                span.tag("kept", pass.kept);
            }
            // The 2006 baseline maps serially and dispatches nothing.
            if par.chunks > 0 {
                ctx.tel.kernel("map:waves", &par);
            }
            let netlist = synth.netlist;
            if !cfg.verify_synthesis {
                return Ok(StageTry::Done((netlist, None, par)));
            }
            let budget = if ctx.adapt == 0 { EC_BUDGET } else { EC_BUDGET_ESCALATED };
            ctx.tel.count("synth.ec_sim_budget", budget as u64);
            match check_equivalence(design, &netlist, &[], &[], budget) {
                Ok(EcVerdict::Equivalent) => Ok(StageTry::Done((netlist, Some(true), par))),
                Ok(EcVerdict::Counterexample(_)) => Ok(StageTry::Degraded(
                    (netlist, Some(false), par),
                    "equivalence counterexample found against the input design".into(),
                )),
                Ok(EcVerdict::Inconclusive) => {
                    if ctx.adapt == 0 {
                        Ok(StageTry::Retry {
                            reason: format!("equivalence inconclusive at the {budget}-node budget"),
                            salvage: Some((
                                (netlist, None, par),
                                "equivalence unresolved".to_string(),
                            )),
                        })
                    } else {
                        Ok(StageTry::Degraded(
                            (netlist, None, par),
                            "equivalence still inconclusive after budget escalation".into(),
                        ))
                    }
                }
                Err(e) => Ok(StageTry::Degraded(
                    (netlist, None, par),
                    format!("equivalence check failed: {e}"),
                )),
            }
        })?;
        if par.chunks > 0 {
            st.stage_threads.insert(stage.into(), par.threads);
            st.stage_speedup.insert(stage.into(), par.bounded_speedup());
        }
        st.netlist = Some(netlist);
        st.synthesis_verified = verified;
        st.stage_seconds.insert(stage.into(), timer.lap());
        st.cursor = 1;
        memo.finish(key, stage, &mut st, &mut sup);
        save_checkpoint(cfg, design.name(), fp, &mut st, &mut sup, stage)?;
    }

    // ---- 2: clock gating (before scan so gates see plain flops) ----
    let key = memo.begin("2_clock_gating", 2, &mut st, &mut sup, &mut timer)?;
    if st.cursor < 2 {
        let stage = "2_clock_gating";
        let cur = current_netlist(&st);
        let gated = if cfg.power.clock_gating_group == 0 {
            sup.skip(stage, "clock gating disabled", cur.clone())
        } else {
            sup.run_stage(stage, |ctx: StageCtx<'_>| {
                match insert_clock_gating(cur, cfg.power.clock_gating_group) {
                    Ok(g) => {
                        ctx.tel.count("gating.gates_inserted", g.gates_inserted as u64);
                        ctx.tel.count("gating.flops_gated", g.flops_gated as u64);
                        Ok(StageTry::Done(g.netlist))
                    }
                    Err(e) => Ok(StageTry::Degraded(
                        cur.clone(),
                        format!("clock gating failed, keeping the ungated netlist: {e}"),
                    )),
                }
            })?
        };
        st.netlist = Some(gated);
        st.stage_seconds.insert(stage.into(), timer.lap());
        st.cursor = 2;
        memo.finish(key, stage, &mut st, &mut sup);
        save_checkpoint(cfg, design.name(), fp, &mut st, &mut sup, stage)?;
    }

    // ---- 3: scan insertion ----
    let key = memo.begin("3_scan", 3, &mut st, &mut sup, &mut timer)?;
    if st.cursor < 3 {
        let stage = "3_scan";
        let cur = current_netlist(&st);
        let (scanned, chains) = match cfg.scan {
            Some(scan) => sup.run_stage(stage, |ctx: StageCtx<'_>| {
                let s = insert_scan(cur, scan.chains).map_err(StageFailure::Netlist)?;
                ctx.tel.count("scan.chains", s.chains.len() as u64);
                ctx.tel
                    .count("scan.flops_stitched", s.chains.iter().map(|c| c.len() as u64).sum());
                Ok(StageTry::Done((s.netlist, s.chains)))
            })?,
            None => sup.skip(stage, "scan insertion disabled", (cur.clone(), Vec::new())),
        };
        let stats = NetlistStats::of(&scanned);
        st.cells = stats.combinational;
        st.flops = stats.flops;
        st.netlist = Some(scanned);
        st.chains = chains;
        st.stage_seconds.insert(stage.into(), timer.lap());
        st.cursor = 3;
        memo.finish(key, stage, &mut st, &mut sup);
        save_checkpoint(cfg, design.name(), fp, &mut st, &mut sup, stage)?;
    }

    // ---- 4: placement ----
    let key = memo.begin("4_place", 4, &mut st, &mut sup, &mut timer)?;
    if st.cursor < 4 {
        let stage = "4_place";
        let cur = current_netlist(&st);
        let die = Die::for_netlist(cur, cfg.utilization);
        let (placement, hpwl_final, par) = sup.run_stage(stage, |ctx: StageCtx<'_>| {
            if cfg.place.cluster_gates > 0 {
                // Scale tier: multilevel cluster → coarse-place → refine.
                // Serial by construction, so thread-invariance is trivial.
                let out = place_multilevel(
                    cur,
                    die,
                    &MultilevelConfig {
                        cluster_size: cfg.place.cluster_gates,
                        coarse_iterations: cfg.place.global_iterations,
                        refine_moves_per_cell: cfg.place.anneal_moves_per_cell,
                        seed: cfg.seed,
                    },
                );
                ctx.tel.count("place.clusters", out.clusters as u64);
                ctx.tel.count("place.moves_proposed", out.refine.proposed as u64);
                ctx.tel.count("place.moves_accepted", out.refine.accepted as u64);
                ctx.tel.gauge("place.hpwl_global_um", out.hpwl_expanded);
                ctx.tel.gauge("place.hpwl_final_um", out.refine.hpwl_after);
                Ok(StageTry::Done((out.placement, out.refine.hpwl_after, None)))
            } else if cfg.place.stripes > 1 {
                let out = eda_place::place_parallel(
                    cur,
                    die,
                    &ParallelConfig {
                        threads,
                        stripes: cfg.place.stripes,
                        moves_per_cell: cfg.place.anneal_moves_per_cell,
                        passes: 2,
                        seed: cfg.seed,
                    },
                );
                ctx.tel.kernel("place:stripe_refine", &out.par_stats);
                ctx.tel.count("place.moves_accepted", out.moves_accepted as u64);
                ctx.tel.gauge("place.hpwl_global_um", out.hpwl_global);
                ctx.tel.gauge("place.hpwl_final_um", out.hpwl_final);
                Ok(StageTry::Done((out.placement, out.hpwl_final, Some(out.par_stats))))
            } else {
                let mut p = place_global(
                    cur,
                    die,
                    &GlobalConfig { iterations: cfg.place.global_iterations, seed: cfg.seed },
                );
                let stats = anneal(
                    cur,
                    &mut p,
                    &AnnealConfig {
                        moves_per_cell: cfg.place.anneal_moves_per_cell,
                        seed: cfg.seed,
                        ..Default::default()
                    },
                    None,
                    None,
                );
                ctx.tel.count("place.moves_proposed", stats.proposed as u64);
                ctx.tel.count("place.moves_accepted", stats.accepted as u64);
                ctx.tel.gauge("place.hpwl_global_um", stats.hpwl_before);
                ctx.tel.gauge("place.hpwl_final_um", stats.hpwl_after);
                Ok(StageTry::Done((p, stats.hpwl_after, None)))
            }
        })?;
        // The independent auditor: legal sites, one cell per site, and the
        // reported wirelength recomputed by a plain netlist walk.
        debug_assert_eq!(
            eda_place::audit_placement(cur, &placement, hpwl_final),
            Ok(()),
            "place audit failed"
        );
        if let Some(par) = par {
            st.stage_threads.insert(stage.into(), par.threads);
            st.stage_speedup.insert(stage.into(), par.bounded_speedup());
        }
        st.placement = Some(placement);
        st.stage_seconds.insert(stage.into(), timer.lap());
        st.cursor = 4;
        memo.finish(key, stage, &mut st, &mut sup);
        save_checkpoint(cfg, design.name(), fp, &mut st, &mut sup, stage)?;
    }

    // ---- 5: scan reordering (placement-aware) ----
    let key = memo.begin("5_scan_reorder", 5, &mut st, &mut sup, &mut timer)?;
    if st.cursor < 5 {
        let stage = "5_scan_reorder";
        let placement = current_placement(&st);
        let reorder_on = cfg.scan.is_some_and(|s| s.placement_aware_reorder);
        let (chains, scan_wl) = if reorder_on && !st.chains.is_empty() {
            let chains0 = st.chains.clone();
            sup.run_stage(stage, |ctx: StageCtx<'_>| {
                let before = scan_wirelength(&chains0, placement);
                let reordered = reorder_chains(&chains0, placement);
                let wl = scan_wirelength(&reordered, placement);
                ctx.tel.gauge("scan.wirelength_before_um", before);
                ctx.tel.gauge("scan.wirelength_um", wl);
                Ok(StageTry::Done((reordered, wl)))
            })?
        } else {
            let cause = if st.chains.is_empty() { "no scan chains to reorder" } else { "placement-aware reorder disabled" };
            let wl = scan_wirelength(&st.chains, placement);
            sup.skip(stage, cause, (st.chains.clone(), wl))
        };
        st.chains = chains;
        st.scan_wirelength_um = scan_wl;
        st.stage_seconds.insert(stage.into(), timer.lap());
        st.cursor = 5;
        memo.finish(key, stage, &mut st, &mut sup);
        save_checkpoint(cfg, design.name(), fp, &mut st, &mut sup, stage)?;
    }

    // ---- 6: clock-tree synthesis ----
    let key = memo.begin("6_cts", 6, &mut st, &mut sup, &mut timer)?;
    if st.cursor < 6 {
        let stage = "6_cts";
        let cur = current_netlist(&st);
        let placement = current_placement(&st);
        let (skew_ps, tree_um) = sup.run_stage(stage, |ctx: StageCtx<'_>| {
            let (tree, sinks) = synthesize_clock_tree(cur, placement, &CtsConfig::default());
            ctx.tel.count("cts.sinks", sinks.len() as u64);
            ctx.tel.gauge("cts.skew_ps", tree.skew_ps());
            ctx.tel.gauge("cts.wirelength_um", tree.wirelength_um);
            Ok(StageTry::Done((tree.skew_ps(), tree.wirelength_um)))
        })?;
        st.clock_skew_ps = skew_ps;
        st.clock_tree_um = tree_um;
        st.stage_seconds.insert(stage.into(), timer.lap());
        st.cursor = 6;
        memo.finish(key, stage, &mut st, &mut sup);
        save_checkpoint(cfg, design.name(), fp, &mut st, &mut sup, stage)?;
    }

    // ---- 7: timing (setup at nominal, hold at the fast corner) ----
    let key = memo.begin("6_sta", 7, &mut st, &mut sup, &mut timer)?;
    if st.cursor < 7 {
        let stage = "6_sta";
        let cur = current_netlist(&st);
        let tcfg = TimingConfig { clock_period_ps: 1e6 / cfg.clock_mhz, ..Default::default() };
        let (wns, cp, holds) = sup.run_stage(stage, |ctx: StageCtx<'_>| {
            let timing = TimingAnalysis::run(cur, &tcfg).map_err(StageFailure::Netlist)?;
            ctx.tel.count("sta.arcs_timed", timing.arcs_timed as u64);
            ctx.tel.count("sta.endpoints", timing.endpoints as u64);
            ctx.tel.count("sta.failing_endpoints", timing.failing_endpoints as u64);
            ctx.tel.count("sta.hold_violations", timing.hold_violations as u64);
            ctx.tel.gauge("sta.wns_ps", timing.wns_ps);
            ctx.tel.gauge("sta.tns_ps", timing.tns_ps);
            Ok(StageTry::Done((timing.wns_ps, timing.critical_path_ps, timing.hold_violations)))
        })?;
        st.wns_ps = wns;
        st.critical_path_ps = cp;
        st.hold_violations = holds;
        st.stage_seconds.insert(stage.into(), timer.lap());
        st.cursor = 7;
        memo.finish(key, stage, &mut st, &mut sup);
        save_checkpoint(cfg, design.name(), fp, &mut st, &mut sup, stage)?;
    }

    let plan = PatterningPlan::for_node(cfg.node);

    // ---- 8: routing ----
    let key = memo.begin("7_route", 8, &mut st, &mut sup, &mut timer)?;
    if st.cursor < 8 {
        let stage = "7_route";
        let cur = current_netlist(&st);
        let placement = current_placement(&st);
        let deck = if plan.needs_decomposition() {
            RuleDeck::multi_patterned(cfg.layers, plan.total_exposures())
        } else {
            RuleDeck::simple(cfg.layers)
        };
        // No escalation: overflow left after the rip-up budget is reported
        // as partial routes. A coarser grid cannot help — per-edge capacity
        // comes from the deck alone, so halving the grid quarters total
        // capacity while the same wires cross half as many cut lines
        // (DESIGN.md §7).
        let (routed, par) = sup.run_stage(stage, |ctx: StageCtx<'_>| {
            let rcfg = RouteConfig {
                algorithm: cfg.router,
                deck: deck.clone(),
                grid_cells: cfg.route_grid_cells,
                ripup_iterations: cfg.ripup_iterations,
                threads,
                window_margin: cfg.route_window_margin,
                region_size: cfg.route_region_size,
            };
            let (out, stats, replayed) =
                route_stats_memo(cur, placement, &rcfg, sub.as_ref().map(|s| s as &dyn SubstageMemo));
            // A replayed outcome ran no parallel kernel: no kernel span,
            // exactly like a stage-cache hit records no attempt spans.
            if !replayed {
                ctx.tel.kernel("route:waves", &stats);
            }
            ctx.tel.gauge("route.regions", out.regions as f64);
            ctx.tel.count("route.local_commits", out.local_commits);
            ctx.tel.count("route.seam_conflicts", out.seam_conflicts);
            ctx.tel.count("route.negotiation_waves", out.negotiation_waves);
            ctx.tel.count("route.ripup_iterations", out.iterations as u64);
            ctx.tel.count("route.connections", out.connections as u64);
            ctx.tel.count("route.cells_expanded", out.cells_expanded);
            ctx.tel.count("route.linesearch_fallbacks", out.linesearch_fallbacks as u64);
            ctx.tel.gauge("route.window_peak_cells", out.peak_window_cells as f64);
            ctx.tel.gauge("route.dense_grid_cells", out.dense_grid_cells as f64);
            for &overflow in &out.ripup_overflow {
                ctx.tel.observe(
                    "route.ripup_overflow",
                    &[0.0, 2.0, 8.0, 32.0, 128.0, 512.0],
                    overflow as f64,
                );
            }
            if out.is_clean() || cfg.ripup_iterations == 0 {
                return Ok(StageTry::Done((out, stats)));
            }
            let overflow = out.overflow;
            Ok(StageTry::Degraded((out, stats), format!("partial routes ({overflow} overflow)")))
        })?;
        st.routed_wirelength = routed.wirelength;
        st.routed_vias = routed.vias;
        st.routed_overflow = routed.overflow;
        // A sub-stage replay dispatched no parallel work; like the other
        // stages, worker accounting only exists where workers ran.
        if par.chunks > 0 {
            st.stage_threads.insert(stage.into(), par.threads);
            st.stage_speedup.insert(stage.into(), par.bounded_speedup());
        }
        st.stage_seconds.insert(stage.into(), timer.lap());
        st.cursor = 8;
        memo.finish(key, stage, &mut st, &mut sup);
        save_checkpoint(cfg, design.name(), fp, &mut st, &mut sup, stage)?;
    }

    // ---- 9: lithography decomposition + OPC of the critical layer ----
    // Single-patterned nodes print the layer in one exposure — nothing to
    // decompose or correct. Below the single-exposure pitch, the
    // critical-layer geometry is modeled as a wire population whose count
    // tracks routed wirelength at the node's minimum pitch (see DESIGN.md).
    let key = memo.begin("8_litho", 9, &mut st, &mut sup, &mut timer)?;
    if st.cursor < 9 {
        let stage = "8_litho";
        if !plan.needs_decomposition() {
            let (masks, stitches, legal, epe) =
                sup.skip(stage, "single-patterned node needs no decomposition or OPC", (1u32, 0usize, true, 0.0f64));
            st.masks = masks;
            st.stitches = stitches;
            st.litho_legal = legal;
            st.opc_rms_epe_nm = epe;
        } else {
            let pitch = cfg.node.spec().metal_pitch_nm;
            let wires = (st.routed_wirelength / 4).clamp(24, 160) as usize;
            let layout = Layout::random_wires(wires, pitch, pitch * 40.0, cfg.seed);
            let model = OpticalModel::default();
            // After decomposition each mask prints at the relaxed pitch.
            let relaxed_pitch = pitch * plan.total_exposures() as f64;
            let (masks, stitches, legal, epe) = sup.run_stage(stage, |ctx: StageCtx<'_>| {
                // Recovery: double the stitch budget and halve the OPC gain.
                let stitch_budget = if ctx.adapt == 0 { wires / 2 } else { wires };
                let deco = decompose(&layout, plan.total_exposures(), eda_tech::SINGLE_EXPOSURE_PITCH_NM, stitch_budget);
                ctx.tel.count("litho.masks", u64::from(deco.masks));
                ctx.tel.count("litho.stitches", deco.stitches as u64);
                let ocfg = OpcConfig { threads, ..Default::default() };
                let ocfg = if ctx.adapt == 0 { ocfg } else { ocfg.backoff() };
                let target: Vec<(f64, f64)> = (0..6)
                    .map(|i| {
                        let x = 200.0 + i as f64 * relaxed_pitch;
                        (x, x + relaxed_pitch / 2.0)
                    })
                    .collect();
                let extent = 400.0 + relaxed_pitch * 6.0;
                let (opc, opc_par) = run_opc_stats(&model, &target, extent, &ocfg);
                ctx.tel.kernel("opc:fragments", &opc_par);
                ctx.tel.count("opc.fragment_moves", opc.fragment_moves as u64);
                ctx.tel
                    .count("opc.iterations", opc.rms_epe_history.len().saturating_sub(1) as u64);
                for &epe_nm in &opc.rms_epe_history {
                    ctx.tel.observe(
                        "opc.rms_epe_nm",
                        &[0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
                        epe_nm,
                    );
                }
                let epe = opc.final_rms_epe();
                let converged = opc.converged(OPC_RMS_EPE_LIMIT_NM);
                let value = (deco.masks, deco.stitches, deco.legal, epe);
                if deco.legal && converged {
                    return Ok(StageTry::Done(value));
                }
                let mut reasons = Vec::new();
                if !deco.legal {
                    reasons.push(format!("decomposition illegal within a {stitch_budget}-stitch budget"));
                }
                if !converged {
                    reasons.push(format!("OPC unconverged at {epe:.2} nm rms EPE"));
                }
                let reason = reasons.join("; ");
                if ctx.adapt == 0 {
                    Ok(StageTry::Retry {
                        reason: reason.clone(),
                        salvage: Some((value, format!("best-effort masks ({reason})"))),
                    })
                } else {
                    Ok(StageTry::Degraded(value, format!("{reason} (after stitch-budget and OPC-gain retry)")))
                }
            })?;
            st.masks = masks;
            st.stitches = stitches;
            st.litho_legal = legal;
            st.opc_rms_epe_nm = epe;
        }
        st.stage_seconds.insert(stage.into(), timer.lap());
        st.cursor = 9;
        memo.finish(key, stage, &mut st, &mut sup);
        save_checkpoint(cfg, design.name(), fp, &mut st, &mut sup, stage)?;
    }

    // ---- 10: power analysis, decap insertion, IR signoff ----
    let key = memo.begin("9_power", 10, &mut st, &mut sup, &mut timer)?;
    if st.cursor < 10 {
        let stage = "9_power";
        let cur = current_netlist(&st);
        let placement = current_placement(&st);
        let pcfg = PowerConfig { node: cfg.node, freq_mhz: cfg.clock_mhz, ..Default::default() };
        let (powered, dynamic_mw, leakage_mw, decaps, hotspots, ir_mv) = sup.run_stage(stage, |ctx: StageCtx<'_>| {
            let activity = Activity::estimate(cur, &ActivityConfig::default()).map_err(StageFailure::Netlist)?;
            let power = analyze(cur, &activity, &pcfg);
            let mut netlist = cur.clone();
            let mut decaps = 0usize;
            let mut hotspots = 0usize;
            let mut notes: Vec<String> = Vec::new();
            if let Some(limit) = cfg.power.decap_droop_limit_mv {
                let mut grid = PowerGrid::build(cur, placement, &activity, &pcfg, 8);
                match insert_decaps(cur, &mut grid, cfg.node, limit) {
                    Ok(out) => {
                        decaps = out.decaps_inserted;
                        hotspots = out.hotspots_after;
                        netlist = out.netlist;
                    }
                    Err(e) => notes.push(format!("decap insertion failed, continuing without decaps: {e}")),
                }
            }
            // Static IR drop of the final power map. Recovery: a stalled
            // Gauss–Seidel relaxation retries with a relaxed tolerance.
            let ir_grid = PowerGrid::build(&netlist, placement, &activity, &pcfg, 8);
            let mesh = if ctx.adapt == 0 { MeshConfig::default() } else { MeshConfig::default().relaxed() };
            let ir = solve_ir_drop(&ir_grid, cfg.node, &mesh);
            let converged = ir.converged(&mesh);
            ctx.tel.count("power.decaps_inserted", decaps as u64);
            ctx.tel.count("power.hotspots_after", hotspots as u64);
            ctx.tel.count("power.ir_iterations", ir.iterations as u64);
            ctx.tel.gauge("power.dynamic_mw", power.dynamic_mw);
            ctx.tel.gauge("power.leakage_mw", power.leakage_mw);
            ctx.tel.gauge("power.ir_drop_mv", ir.worst_drop_mv());
            let value = (netlist, power.dynamic_mw, power.leakage_mw, decaps, hotspots, ir.worst_drop_mv());
            if converged {
                if notes.is_empty() {
                    Ok(StageTry::Done(value))
                } else {
                    Ok(StageTry::Degraded(value, notes.join("; ")))
                }
            } else if ctx.adapt == 0 {
                notes.push(format!("IR solver stalled at the {}-iteration cap", mesh.max_iterations));
                let reason = notes.join("; ");
                Ok(StageTry::Retry {
                    reason: reason.clone(),
                    salvage: Some((value, "unconverged IR solution".to_string())),
                })
            } else {
                notes.push("IR solver unconverged even with relaxed tolerance".into());
                Ok(StageTry::Degraded(value, notes.join("; ")))
            }
        })?;
        st.netlist = Some(powered);
        st.dynamic_mw = dynamic_mw;
        st.leakage_mw = leakage_mw;
        st.decaps = decaps;
        st.hotspots = hotspots;
        st.ir_drop_mv = ir_mv;
        st.stage_seconds.insert(stage.into(), timer.lap());
        st.cursor = 10;
        memo.finish(key, stage, &mut st, &mut sup);
        save_checkpoint(cfg, design.name(), fp, &mut st, &mut sup, stage)?;
    }

    // ---- 11: test coverage (random-pattern estimate) ----
    let key = memo.begin("10_dft", 11, &mut st, &mut sup, &mut timer)?;
    if st.cursor < 11 {
        let stage = "10_dft";
        if cfg.scan.is_none() {
            st.test_coverage = sup.skip(stage, "scan insertion disabled", 0.0);
        } else {
            let cur = current_netlist(&st);
            let (coverage, par) = sup.run_stage(stage, |ctx: StageCtx<'_>| {
                let view = CombView::new(cur).map_err(StageFailure::Netlist)?;
                let faults = fault_list(cur);
                let pats = random_patterns(&view, 96, cfg.seed);
                let (sim, dft_par) = fault_sim_threaded(cur, &view, &faults, &pats, threads);
                ctx.tel.kernel("fault_sim:faults", &dft_par);
                ctx.tel.count("dft.faults", sim.total as u64);
                ctx.tel.count("dft.detected", sim.num_detected as u64);
                ctx.tel.count("dft.pattern_blocks", sim.pattern_blocks as u64);
                ctx.tel.gauge("dft.coverage", sim.coverage());
                Ok(StageTry::Done((sim.coverage(), dft_par)))
            })?;
            st.test_coverage = coverage;
            st.stage_threads.insert(stage.into(), par.threads);
            st.stage_speedup.insert(stage.into(), par.bounded_speedup());
        }
        st.stage_seconds.insert(stage.into(), timer.lap());
        st.cursor = 11;
        memo.finish(key, stage, &mut st, &mut sup);
        save_checkpoint(cfg, design.name(), fp, &mut st, &mut sup, stage)?;
    }

    // Long-net buffering is part of area accounting.
    let netlist = current_netlist(&st);
    let placement = current_placement(&st);
    let buffers = plan_buffers(netlist, placement, placement.die.width_um / 2.0, &[]);

    // Sub-stage traffic lands in the metric registry only when a store is
    // enabled, so the storeless golden snapshot stays byte-stable.
    if let Some(sub) = &sub {
        tel.count("cache.substage_hits", sub.hits.get());
        tel.count("cache.substage_misses", sub.misses.get());
        if sub.errors.get() > 0 {
            tel.count("cache.errors", sub.errors.get());
        }
    }

    drop(flow_span);
    let report = FlowReport {
        flow: cfg.name.clone(),
        design: design.name().to_string(),
        node: cfg.node.to_string(),
        cell_area_um2: netlist.area_um2() + buffers.added_area_um2,
        cells: st.cells,
        flops: st.flops,
        wns_ps: st.wns_ps,
        critical_path_ps: st.critical_path_ps,
        hpwl_um: placement.total_hpwl(netlist),
        routed_wirelength: st.routed_wirelength,
        vias: st.routed_vias,
        overflow: st.routed_overflow,
        masks: st.masks,
        stitches: st.stitches,
        litho_legal: st.litho_legal,
        opc_rms_epe_nm: st.opc_rms_epe_nm,
        dynamic_mw: st.dynamic_mw,
        leakage_mw: st.leakage_mw,
        test_coverage: st.test_coverage,
        scan_wirelength_um: st.scan_wirelength_um,
        decaps: st.decaps,
        hotspots: st.hotspots,
        clock_skew_ps: st.clock_skew_ps,
        clock_tree_um: st.clock_tree_um,
        ir_drop_mv: st.ir_drop_mv,
        hold_violations: st.hold_violations,
        synthesis_verified: st.synthesis_verified,
        stage_status: sup.statuses.clone(),
        stage_seconds: st.stage_seconds.clone(),
        stage_threads: st.stage_threads.clone(),
        stage_speedup: st.stage_speedup.clone(),
        telemetry: tel.snapshot(),
    };
    if let Some(store) = &store {
        if store.config().provenance {
            record_provenance(store, &report, fp);
        }
    }
    Ok(report)
}

/// Appends one `qor` row plus per-stage `qstage` rows for a completed flow,
/// feeding `experiments query`. Best-effort by design: a full or locked
/// store must never fail a flow that already produced its report.
fn record_provenance(store: &FlowStore, report: &FlowReport, cfg_fp: u64) {
    let wall_s: f64 = report.stage_seconds.values().sum();
    let row = QorRow {
        seq: 0,
        design: report.design.clone(),
        node: report.node.clone(),
        cfg_fp,
        qor_fp: report.qor_fingerprint(),
        wns_ps: report.wns_ps,
        overflow: report.overflow,
        hpwl_um: report.hpwl_um,
        wall_s,
        peak_rss_bytes: crate::telemetry::read_peak_rss_bytes(),
    };
    let _ = store.append(Table::Qor, &row.to_payload());
    for (stage, status) in &report.stage_status {
        let srow = StageRow {
            seq: 0,
            design: report.design.clone(),
            stage: stage.clone(),
            outcome: status.outcome.to_string(),
            attempts: status.attempts as u32,
            wall_s: report.stage_seconds.get(stage).copied().unwrap_or(0.0),
        };
        let _ = store.append(Table::QStage, &srow.to_payload());
    }
}

/// Adapter exposing the store's sub-stage table through the engine crates'
/// [`SubstageMemo`] trait. The store key folds the kind into the engine's
/// key so `aig.rw` and `route.net` entries can never collide. Counters are
/// interior-mutable `Cell`s because the memo contract is single-threaded:
/// probes and stores happen only on the orchestrating thread.
struct SubMemo {
    inner: Arc<FlowStore>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    errors: Cell<u64>,
}

impl SubMemo {
    fn new(inner: Arc<FlowStore>) -> SubMemo {
        SubMemo { inner, hits: Cell::new(0), misses: Cell::new(0), errors: Cell::new(0) }
    }

    fn store_key(kind: &str, key: u64) -> u64 {
        fnv1a(format!("{kind}|{key:016x}").bytes())
    }
}

impl SubstageMemo for SubMemo {
    fn load(&self, kind: &str, key: u64) -> Option<String> {
        match self.inner.get(Table::Sub, Self::store_key(kind, key)) {
            Lookup::Hit(payload) => {
                self.hits.set(self.hits.get() + 1);
                Some(payload)
            }
            // Evicted and cold are the same to a memo: recompute. The
            // engine-side parsers reject any payload that does not match
            // their versioned format, so Corrupt cannot replay either.
            Lookup::Miss | Lookup::Evicted => {
                self.misses.set(self.misses.get() + 1);
                None
            }
            Lookup::Corrupt(_) => {
                self.errors.set(self.errors.get() + 1);
                None
            }
        }
    }

    fn store(&self, kind: &str, key: u64, payload: &str) {
        if self.inner.put(Table::Sub, Self::store_key(kind, key), payload).is_err() {
            self.errors.set(self.errors.get() + 1);
        }
    }
}

/// The netlist as of the last completed stage. Internal invariant: every
/// stage past `1_synthesis` has one.
fn current_netlist(st: &FlowState) -> &Netlist {
    st.netlist.as_ref().expect("netlist exists after synthesis")
}

/// The placement as of the last completed stage. Internal invariant: every
/// stage past `4_place` has one.
fn current_placement(st: &FlowState) -> &eda_place::Placement {
    st.placement.as_ref().expect("placement exists after the place stage")
}

/// The per-stage cache hooks of the incremental engine: [`begin`] runs
/// before a stage's `if st.cursor < n` guard and, on a cache hit, advances
/// the cursor past the stage so the body never executes; [`finish`] stores
/// the just-computed post-stage state on the cold path.
///
/// [`begin`]: StageMemo::begin
/// [`finish`]: StageMemo::finish
struct StageMemo<'a> {
    /// `None` = caching off (no store, or a fault plan is active).
    cache: Option<StageCache>,
    cfg: &'a FlowConfig,
    design: &'a Netlist,
    fp: u64,
}

impl StageMemo<'_> {
    /// Tries to replay `stage` from the cache. On a hit the cached
    /// post-stage state replaces `st` wholesale — the content address covers
    /// the serialized pre-stage state including the status prefix, so the
    /// cached state agrees with the current run on everything before this
    /// stage — and `Ok(None)` is returned with `st.cursor == done_cursor`,
    /// which skips the stage body. A miss, an evicted entry, or an
    /// unreadable entry counts its metric and returns the key for
    /// [`finish`](Self::finish) to store under after the recompute.
    ///
    /// The key's config component is the *per-stage* fingerprint
    /// ([`cache::stage_fp`]), not the whole-config one: a knob change
    /// invalidates exactly the stages that read the knob, and the unchanged
    /// prefix keeps hitting.
    fn begin(
        &self,
        stage: &'static str,
        done_cursor: usize,
        st: &mut FlowState,
        sup: &mut Supervisor<'_>,
        timer: &mut Timer,
    ) -> Result<Option<u64>, FlowError> {
        if st.cursor >= done_cursor {
            return Ok(None); // Already past this stage (resume).
        }
        let Some(cache) = &self.cache else {
            return Ok(None);
        };
        let sfp = cache::stage_fp(stage, self.design, self.cfg);
        let key = cache::entry_key(stage, sfp, cache::state_hash(st));
        match cache.load(stage, key) {
            Ok(Some(cached)) if cached.cursor == done_cursor => {
                sup.cache_hit(stage, &cached.statuses);
                *st = cached;
                st.stage_seconds.insert(stage.into(), timer.lap());
                save_checkpoint(self.cfg, self.design.name(), self.fp, st, sup, stage)?;
                Ok(None)
            }
            Ok(Some(_)) => {
                // Parses but stopped at the wrong cursor: replaying it would
                // derail the stage sequence, so treat it as unreadable.
                sup.cache_unreadable();
                Ok(Some(key))
            }
            Ok(None) => {
                sup.cache_miss();
                Ok(Some(key))
            }
            Err(CacheError::Evicted) => {
                sup.cache_evicted();
                Ok(Some(key))
            }
            Err(_) => {
                sup.cache_unreadable();
                Ok(Some(key))
            }
        }
    }

    /// Stores the just-computed post-stage state under `key`. A failed
    /// store never fails the flow: it counts into `cache.errors` and moves
    /// on.
    fn finish(&self, key: Option<u64>, stage: &str, st: &mut FlowState, sup: &mut Supervisor<'_>) {
        let (Some(cache), Some(key)) = (&self.cache, key) else {
            return;
        };
        st.statuses = sup.statuses.clone();
        if cache.store(stage, key, st).is_err() {
            sup.telemetry().count("cache.errors", 1);
        }
    }
}

fn save_checkpoint(
    cfg: &FlowConfig,
    design: &str,
    fp: u64,
    st: &mut FlowState,
    sup: &mut Supervisor<'_>,
    stage: &'static str,
) -> Result<(), FlowError> {
    let Some(dir) = &cfg.checkpoint_dir else {
        return Ok(());
    };
    st.statuses = sup.statuses.clone();
    match checkpoint::save(dir, design, fp, st) {
        Ok(path) => {
            sup.checkpoint = Some(path);
            Ok(())
        }
        Err(reason) => Err(FlowError::Checkpoint { stage, reason }),
    }
}

struct Timer {
    last: Instant,
}

impl Timer {
    fn new() -> Timer {
        Timer { last: Instant::now() }
    }

    fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let dt = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        dt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::StageOutcome;
    use eda_netlist::generate;
    use eda_tech::Node;

    #[test]
    fn advanced_flow_runs_end_to_end() {
        let design = generate::switch_fabric(3, 3).unwrap();
        let report = run_flow(&design, &FlowConfig::advanced_2016(Node::N28)).unwrap();
        assert!(report.cell_area_um2 > 0.0);
        assert!(report.hpwl_um > 0.0);
        assert!(report.routed_wirelength > 0);
        assert!(report.test_coverage > 0.5);
        assert!(report.dynamic_mw > 0.0);
        assert!(!report.stage_seconds.is_empty());
    }

    #[test]
    fn basic_flow_runs_end_to_end() {
        let design = generate::ripple_carry_adder(8).unwrap();
        let report = run_flow(&design, &FlowConfig::basic_2006(Node::N90)).unwrap();
        assert!(report.cell_area_um2 > 0.0);
        assert_eq!(report.decaps, 0, "2006 flow has no auto-decap");
    }

    #[test]
    fn advanced_beats_basic_on_score() {
        let design = generate::random_logic(generate::RandomLogicConfig {
            gates: 250,
            seed: 6,
            ..Default::default()
        })
        .unwrap();
        let basic = run_flow(&design, &FlowConfig::basic_2006(Node::N90)).unwrap();
        let advanced = run_flow(&design, &FlowConfig::advanced_2016(Node::N90)).unwrap();
        assert!(
            advanced.cell_area_um2 < basic.cell_area_um2,
            "advanced area {:.0} must beat basic {:.0}",
            advanced.cell_area_um2,
            basic.cell_area_um2
        );
        assert!(advanced.score() < basic.score());
    }

    #[test]
    fn multipatterned_node_reports_masks() {
        let design = generate::parity_tree(16).unwrap();
        let report = run_flow(&design, &FlowConfig::advanced_2016(Node::N10)).unwrap();
        assert!(report.masks >= 2, "10nm critical layer needs multiple masks");
        let litho = &report.stage_status["8_litho"];
        assert!(
            !matches!(litho.outcome, StageOutcome::Skipped { .. }),
            "multi-patterned flow must run decomposition + OPC, got {}",
            litho.outcome
        );
        assert!(
            report.opc_rms_epe_nm <= super::OPC_RMS_EPE_LIMIT_NM,
            "OPC must converge at the decomposed pitch, got {:.2} nm",
            report.opc_rms_epe_nm
        );
    }

    #[test]
    fn every_stage_reports_a_status() {
        let design = generate::switch_fabric(3, 3).unwrap();
        for cfg in [FlowConfig::advanced_2016(Node::N28), FlowConfig::basic_2006(Node::N90)] {
            let report = run_flow(&design, &cfg).unwrap();
            assert_eq!(report.stage_status.len(), STAGES.len(), "flow {}", cfg.name);
            for stage in STAGES {
                assert!(report.stage_status.contains_key(stage), "missing status for {stage}");
            }
        }
    }

    #[test]
    fn basic_flow_skips_what_it_lacks() {
        let design = generate::ripple_carry_adder(8).unwrap();
        let report = run_flow(&design, &FlowConfig::basic_2006(Node::N90)).unwrap();
        let skipped = |stage: &str| {
            matches!(
                report.stage_status[stage].outcome,
                StageOutcome::Skipped { .. }
            )
        };
        assert!(skipped("2_clock_gating"), "basic flow has no clock gating");
        assert!(skipped("8_litho"), "90nm is single-patterned");
        assert!(report.stage_status["1_synthesis"].is_clean());
    }
}
