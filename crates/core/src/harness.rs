//! Supervised stage execution: budgets, typed outcomes, recovery, and
//! deterministic fault injection.
//!
//! Every stage of [`run_flow`](crate::flow::run_flow) executes inside a
//! [`Supervisor`] harness. The harness gives each stage a [`StageBudget`]
//! (attempt cap plus an optional wall-clock soft deadline), records a typed
//! [`StageStatus`] for the report, and drives the stage's recovery policy:
//! a stage body reports `Done`, `Degraded`, or `Retry` per attempt, and the
//! harness decides whether to re-run it, accept a salvaged partial result,
//! or surface a typed error carrying everything completed so far.
//!
//! Fault injection is deterministic by construction: a [`FaultPlan`] keys
//! faults on `(stage name, invocation count)` — never on wall-clock time or
//! thread identity — so an injected failure reproduces bit-identically at
//! any thread count. The soft deadline is the one wall-clock input, and it
//! only gates *whether a retry is attempted*; it never alters the result of
//! an attempt that ran, so flows with the default (`None`) deadline stay
//! fully deterministic.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::flow::{FlowError, PartialFlow, StageFailure, STAGES};
use crate::telemetry::{SpanKind, Telemetry};

/// How a stage concluded, as recorded in
/// [`FlowReport::stage_status`](crate::report::FlowReport::stage_status).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageOutcome {
    /// First attempt succeeded with a full-quality result.
    Completed,
    /// A recovery policy kicked in and a later attempt succeeded cleanly.
    Recovered {
        /// Total attempts consumed, including the failures.
        attempts: usize,
    },
    /// The stage produced a usable but reduced-quality result.
    Degraded {
        /// Human-readable cause (e.g. "partial routes (12 overflow)").
        reason: String,
    },
    /// The stage did not run at all.
    Skipped {
        /// Why it was skipped (e.g. "scan insertion disabled").
        cause: String,
    },
}

impl std::fmt::Display for StageOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageOutcome::Completed => write!(f, "completed"),
            StageOutcome::Recovered { attempts } => write!(f, "recovered after {attempts} attempts"),
            StageOutcome::Degraded { reason } => write!(f, "degraded: {reason}"),
            StageOutcome::Skipped { cause } => write!(f, "skipped: {cause}"),
        }
    }
}

/// Final status of one flow stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStatus {
    /// The typed outcome.
    pub outcome: StageOutcome,
    /// Attempts consumed (0 for skipped stages).
    pub attempts: usize,
}

impl StageStatus {
    /// True when the stage ended at full quality (completed or recovered).
    pub fn is_clean(&self) -> bool {
        matches!(self.outcome, StageOutcome::Completed | StageOutcome::Recovered { .. })
    }
}

/// Per-stage execution budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageBudget {
    /// Maximum attempts (first run + retries). Clamped to at least 1.
    pub max_attempts: usize,
    /// Wall-clock soft deadline in seconds. When the stage has already spent
    /// longer than this, no further retries are attempted — the harness
    /// accepts the best salvaged result or reports budget exhaustion. It
    /// never interrupts a running attempt, so results stay deterministic.
    /// `None` (the default) disables the deadline.
    pub soft_deadline_s: Option<f64>,
}

impl Default for StageBudget {
    fn default() -> StageBudget {
        StageBudget { max_attempts: 2, soft_deadline_s: None }
    }
}

/// Budgets for every stage: a default plus per-stage overrides.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageBudgets {
    default: StageBudget,
    overrides: BTreeMap<String, StageBudget>,
}

impl StageBudgets {
    /// Budgets with `default` for every stage not overridden.
    pub fn uniform(default: StageBudget) -> StageBudgets {
        StageBudgets { default, overrides: BTreeMap::new() }
    }

    /// Overrides the budget for one stage (full key like `"7_route"`, or the
    /// bare name `"route"`).
    pub fn set(mut self, stage: &str, budget: StageBudget) -> StageBudgets {
        self.overrides.insert(stage.to_string(), budget);
        self
    }

    /// The budget in force for `stage`.
    pub fn for_stage(&self, stage: &str) -> StageBudget {
        self.overrides
            .iter()
            .find(|(k, _)| stage_matches(k, stage))
            .map(|(_, b)| *b)
            .unwrap_or(self.default)
    }
}

/// A fault the injection layer can force on a stage attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The attempt fails outright without running; the recovery policy
    /// decides whether a retry happens.
    Fail,
    /// The attempt's soft deadline is treated as blown: its work is kept but
    /// the stage is marked degraded and no retry is allowed.
    Timeout,
    /// The attempt runs and succeeds, but its result is force-marked
    /// degraded.
    Degrade,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::Fail => write!(f, "fail"),
            Fault::Timeout => write!(f, "timeout"),
            Fault::Degrade => write!(f, "degrade"),
        }
    }
}

/// One rule of a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// Stage the rule applies to: a full key (`"7_route"`) or bare name
    /// (`"route"`).
    pub stage: String,
    /// Which invocation of the stage to hit (`None` = every invocation).
    /// Invocations count every attempt of the stage within one flow run,
    /// starting at 0.
    pub invocation: Option<u64>,
    /// The fault to inject.
    pub fault: Fault,
}

/// A malformed `--inject` fault specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpecError {
    /// The spec contained no rules at all.
    Empty,
    /// A rule was not of the form `stage=fault[@invocation]`.
    BadRule(String),
    /// A rule named a stage that is not in [`STAGES`] (neither as a full
    /// key nor as a bare name).
    UnknownStage(String),
    /// A rule named a fault other than `fail`/`timeout`/`degrade`.
    UnknownFault(String),
    /// An `@invocation` suffix did not parse as an unsigned count.
    BadInvocation(String),
    /// The `random:` per-mille was not an integer in 1..=1000.
    BadPerMille(String),
    /// `random:0` would inject nothing; an explicitly empty plan is
    /// rejected the same way an empty rule list is.
    ZeroRandom,
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSpecError::Empty => write!(f, "empty --inject spec"),
            FaultSpecError::BadRule(r) => {
                write!(f, "bad --inject rule {r:?}: expected stage=fault[@invocation]")
            }
            FaultSpecError::UnknownStage(s) => {
                write!(f, "unknown stage {s:?} in --inject spec (want one of {})", STAGES.join("|"))
            }
            FaultSpecError::UnknownFault(k) => {
                write!(f, "unknown fault {k:?} (want fail|timeout|degrade)")
            }
            FaultSpecError::BadInvocation(i) => {
                write!(f, "bad invocation {i:?} in --inject rule (want an unsigned count)")
            }
            FaultSpecError::BadPerMille(p) => {
                write!(f, "bad per-mille {p:?} in --inject spec (want an integer in 1..=1000)")
            }
            FaultSpecError::ZeroRandom => {
                write!(f, "random:0 injects nothing; omit --inject instead")
            }
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// A deterministic fault-injection plan.
///
/// Faults are keyed purely on `(stage name, invocation count)`: the nth
/// attempt of a given stage sees the same fault on every run, on every
/// machine, at any thread count. The `seed` feeds the optional random mode
/// ([`FaultPlan::random`]), which hashes `(seed, stage, invocation)` — still
/// fully reproducible.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for the hashed random mode.
    pub seed: u64,
    /// Explicit rules, first match wins.
    pub rules: Vec<FaultRule>,
    /// Probability (in 1/1000ths) that the hashed random mode injects a
    /// fault into any given attempt. 0 disables the random mode.
    pub random_per_mille: u16,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, rules: Vec::new(), random_per_mille: 0 }
    }

    /// Adds an explicit rule.
    pub fn with(mut self, stage: &str, invocation: Option<u64>, fault: Fault) -> FaultPlan {
        self.rules.push(FaultRule { stage: stage.to_string(), invocation, fault });
        self
    }

    /// A seeded plan that injects a hashed pseudo-random fault into roughly
    /// `per_mille`/1000 of all stage attempts.
    pub fn random(seed: u64, per_mille: u16) -> FaultPlan {
        FaultPlan { seed, rules: Vec::new(), random_per_mille: per_mille.min(1000) }
    }

    /// The standard smoke plan used by `experiments --inject smoke` and CI:
    /// one recoverable failure, one timeout, and one forced degradation
    /// spread across the flow.
    pub fn smoke(seed: u64) -> FaultPlan {
        FaultPlan::new(seed)
            .with("route", Some(0), Fault::Fail)
            .with("litho", Some(0), Fault::Timeout)
            .with("clock_gating", Some(0), Fault::Degrade)
            .with("dft", Some(0), Fault::Fail)
    }

    /// Parses a command-line spec.
    ///
    /// Accepted forms: `"smoke"`, `"random:<per-mille>"` with per-mille in
    /// 1..=1000, or a comma list of `stage=fault[@invocation]` rules where
    /// `stage` names a real flow stage (full key or bare name) and `fault`
    /// is `fail`, `timeout`, or `degrade` — e.g. `"route=fail@0,litho=timeout"`.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, FaultSpecError> {
        let spec = spec.trim();
        if spec == "smoke" {
            return Ok(FaultPlan::smoke(seed));
        }
        if let Some(pm) = spec.strip_prefix("random:") {
            let parsed: u16 = pm
                .parse()
                .map_err(|_| FaultSpecError::BadPerMille(pm.to_string()))?;
            if parsed == 0 {
                return Err(FaultSpecError::ZeroRandom);
            }
            if parsed > 1000 {
                return Err(FaultSpecError::BadPerMille(pm.to_string()));
            }
            return Ok(FaultPlan::random(seed, parsed));
        }
        let mut plan = FaultPlan::new(seed);
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (stage, rhs) = part
                .split_once('=')
                .ok_or_else(|| FaultSpecError::BadRule(part.to_string()))?;
            if !STAGES.iter().any(|s| stage_matches(stage, s)) {
                return Err(FaultSpecError::UnknownStage(stage.to_string()));
            }
            let (fault, invocation) = match rhs.split_once('@') {
                Some((f, inv)) => {
                    let inv: u64 = inv
                        .parse()
                        .map_err(|_| FaultSpecError::BadInvocation(inv.to_string()))?;
                    (f, Some(inv))
                }
                None => (rhs, None),
            };
            let fault = match fault {
                "fail" => Fault::Fail,
                "timeout" => Fault::Timeout,
                "degrade" => Fault::Degrade,
                other => return Err(FaultSpecError::UnknownFault(other.to_string())),
            };
            plan.rules.push(FaultRule { stage: stage.to_string(), invocation, fault });
        }
        if plan.rules.is_empty() {
            return Err(FaultSpecError::Empty);
        }
        Ok(plan)
    }

    /// The fault (if any) to inject into the given invocation of `stage`.
    /// Pure function of the plan, the stage name, and the invocation count.
    pub fn fault_for(&self, stage: &str, invocation: u64) -> Option<Fault> {
        for rule in &self.rules {
            if stage_matches(&rule.stage, stage) && rule.invocation.is_none_or(|i| i == invocation) {
                return Some(rule.fault);
            }
        }
        if self.random_per_mille > 0 {
            let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
            for b in stage.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            h ^= invocation.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h = splitmix(h);
            if h % 1000 < u64::from(self.random_per_mille) {
                return Some(match (h / 1000) % 3 {
                    0 => Fault::Fail,
                    1 => Fault::Timeout,
                    _ => Fault::Degrade,
                });
            }
        }
        None
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// True when `pattern` names `stage` — either the full key (`"7_route"`)
/// or the bare name after the order prefix (`"route"`).
fn stage_matches(pattern: &str, stage: &str) -> bool {
    if pattern == stage {
        return true;
    }
    match stage.split_once('_') {
        Some((order, bare)) => order.chars().all(|c| c.is_ascii_digit()) && pattern == bare,
        None => false,
    }
}

/// What a stage body reports back to the harness for one attempt.
pub(crate) enum StageTry<T> {
    /// Full-quality result.
    Done(T),
    /// Usable result of reduced quality, with the reason.
    Degraded(T, String),
    /// The attempt did not produce an acceptable result; ask for a retry.
    /// `salvage` optionally carries a partial result (and a note) the
    /// harness can fall back to if the budget runs out.
    Retry {
        /// Why this attempt was unacceptable.
        reason: String,
        /// Best-effort partial result to accept if no retry is possible.
        salvage: Option<(T, String)>,
    },
}

/// Per-attempt context handed to a stage body.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageCtx<'t> {
    /// 0-based attempt index (counts injected failures too).
    #[allow(dead_code)]
    pub attempt: usize,
    /// Number of *observed* failures so far: attempts whose body actually ran
    /// and asked for a retry. Recovery policies key their parameter
    /// escalation (bigger simulation budget, OPC backoff, relaxed tolerance) off
    /// this, not off `attempt`, so an injected fault that skips the body does
    /// not perturb the parameters — and therefore cannot change the QoR — of
    /// the retry.
    pub adapt: usize,
    /// The flow's telemetry collector: stage bodies record kernel spans and
    /// QoR-provenance metrics through this. Recording is observation-only —
    /// nothing a body reads back from it may influence control flow.
    pub tel: &'t Telemetry,
}

/// The stage harness: runs every stage under its budget, applies the fault
/// plan, and accumulates statuses.
pub(crate) struct Supervisor<'p> {
    plan: Option<&'p FaultPlan>,
    budgets: StageBudgets,
    tel: &'p Telemetry,
    /// Statuses of stages finished so far, keyed by stage name — the one
    /// live copy: cache entries serialize it from here, and a cache hit
    /// replaces it with the map it loaded.
    pub statuses: BTreeMap<String, StageStatus>,
    invocations: BTreeMap<&'static str, u64>,
    /// Pending `cache` tag for the next stage span: a cache miss or an
    /// unreadable entry is noted here, then consumed when the recomputing
    /// stage opens its span.
    cache_note: Option<&'static str>,
    /// Flow-level wall-clock deadline: when the flow has already run longer
    /// than this, the next stage boundary surfaces a typed
    /// [`FlowError::DeadlineExceeded`] instead of starting the stage. Like
    /// the per-stage soft deadline it never interrupts a running attempt —
    /// a worker is never left hung mid-stage, and the partial state is
    /// carried on the error.
    deadline_s: Option<f64>,
    flow_started: Instant,
}

impl<'p> Supervisor<'p> {
    pub fn new(
        plan: Option<&'p FaultPlan>,
        budgets: StageBudgets,
        tel: &'p Telemetry,
        deadline_s: Option<f64>,
    ) -> Supervisor<'p> {
        Supervisor {
            plan,
            budgets,
            tel,
            statuses: BTreeMap::new(),
            invocations: BTreeMap::new(),
            cache_note: None,
            deadline_s,
            flow_started: Instant::now(),
        }
    }

    /// Records a stage-cache hit: the cached statuses replace the current
    /// map (the content address covers the status prefix, so they agree for
    /// every earlier stage), and the stage gets a span tagged `cache=hit`
    /// in place of attempt spans — the body never ran.
    pub fn cache_hit(&mut self, stage: &'static str, statuses: BTreeMap<String, StageStatus>) {
        let span = self.tel.span(SpanKind::Stage, stage);
        span.tag("cache", "hit");
        if let Some(status) = statuses.get(stage) {
            span.tag("outcome", &status.outcome);
            span.tag("attempts", status.attempts);
            self.tel.progress(stage, &status.outcome.to_string(), status.attempts);
        }
        self.statuses = statuses;
        self.tel.count("cache.hits", 1);
    }

    /// Counts a stage-cache probe that found nothing to replay — `metric`
    /// says why: a plain miss (`cache.misses`), an unreadable entry
    /// (`cache.errors`: corrupt, truncated, misaddressed), or one evicted
    /// between the index probe and the record read (`cache.evicted_miss`: an
    /// expected race under a size-bounded store with concurrent writers, not
    /// a fault). The stage recomputes as if cold and its span is tagged
    /// `cache=<note>`.
    pub fn cache_cold(&mut self, metric: &str, note: &'static str) {
        self.tel.count(metric, 1);
        self.cache_note = Some(note);
    }

    /// Records `stage` as skipped and passes `value` through.
    pub fn skip<T>(&mut self, stage: &'static str, cause: &str, value: T) -> T {
        let span = self.tel.span(SpanKind::Stage, stage);
        if let Some(note) = self.cache_note.take() {
            span.tag("cache", note);
        }
        span.tag("outcome", format!("skipped: {cause}"));
        let outcome = StageOutcome::Skipped { cause: cause.to_string() };
        self.tel.progress(stage, &outcome.to_string(), 0);
        self.statuses.insert(stage.to_string(), StageStatus { outcome, attempts: 0 });
        value
    }

    /// Runs one stage under the harness.
    ///
    /// The body is invoked once per attempt with a [`StageCtx`]; it returns
    /// a [`StageTry`] describing the attempt, or a hard [`StageFailure`]
    /// that no recovery policy can absorb.
    ///
    /// The stage runs inside a telemetry stage span; each attempt gets a
    /// tagged child span (`try<invocation>`), so injected faults, retries,
    /// and degradations are visible in the trace exactly where they struck.
    pub fn run_stage<T>(
        &mut self,
        stage: &'static str,
        body: impl FnMut(StageCtx<'_>) -> Result<StageTry<T>, StageFailure>,
    ) -> Result<T, FlowError> {
        // The flow deadline trips at stage boundaries only: an attempt that
        // is already running always finishes (determinism — its result never
        // depends on the clock), but no new stage starts past the deadline.
        if let Some(limit) = self.deadline_s {
            let elapsed = self.flow_started.elapsed().as_secs_f64();
            if elapsed > limit {
                return Err(FlowError::DeadlineExceeded {
                    stage,
                    elapsed_s: elapsed,
                    deadline_s: limit,
                    partial: self.partial(),
                });
            }
        }
        let span = self.tel.span(SpanKind::Stage, stage);
        if let Some(note) = self.cache_note.take() {
            span.tag("cache", note);
        }
        let result = self.run_stage_inner(stage, body);
        match &result {
            Ok(_) => {
                if let Some(status) = self.statuses.get(stage) {
                    span.tag("outcome", &status.outcome);
                    span.tag("attempts", status.attempts);
                }
            }
            Err(e) => span.tag("outcome", format!("error: {e}")),
        }
        result
    }

    fn run_stage_inner<T>(
        &mut self,
        stage: &'static str,
        mut body: impl FnMut(StageCtx<'_>) -> Result<StageTry<T>, StageFailure>,
    ) -> Result<T, FlowError> {
        let budget = self.budgets.for_stage(stage);
        let max_attempts = budget.max_attempts.max(1);
        let started = Instant::now();
        let mut salvage: Option<(T, String)> = None;
        let mut last_reason;
        let mut attempt = 0usize;
        let mut adapt = 0usize;
        loop {
            let invocation = {
                let c = self.invocations.entry(stage).or_insert(0);
                let v = *c;
                *c += 1;
                v
            };
            let injected = self.plan.and_then(|p| p.fault_for(stage, invocation));
            let aspan = self.tel.span(SpanKind::Attempt, &format!("try{invocation}"));
            if let Some(fault) = injected {
                aspan.tag("injected", fault);
            }
            match injected {
                Some(Fault::Fail) => {
                    aspan.tag("result", "injected-fail");
                    last_reason = format!("injected failure (invocation {invocation})");
                }
                Some(Fault::Timeout) => {
                    // A simulated blown deadline: whatever this attempt
                    // produces is kept, but marked degraded and no retry
                    // is allowed.
                    aspan.tag("result", "timeout");
                    let outcome = body(StageCtx { attempt, adapt, tel: self.tel })
                        .map_err(|e| self.stage_failed(stage, e))?;
                    let note = format!("soft deadline exceeded (injected timeout, invocation {invocation})");
                    return match outcome {
                        StageTry::Done(v) => {
                            self.record(stage, attempt + 1, StageOutcome::Degraded { reason: note });
                            Ok(v)
                        }
                        StageTry::Degraded(v, why) => {
                            self.record(
                                stage,
                                attempt + 1,
                                StageOutcome::Degraded { reason: format!("{why}; {note}") },
                            );
                            Ok(v)
                        }
                        StageTry::Retry { reason, salvage: Some((v, why)) } => {
                            let _ = reason;
                            self.record(
                                stage,
                                attempt + 1,
                                StageOutcome::Degraded { reason: format!("{why}; {note}") },
                            );
                            Ok(v)
                        }
                        StageTry::Retry { reason, salvage: None } => {
                            Err(self.budget_exhausted(stage, attempt + 1, format!("{reason}; {note}")))
                        }
                    };
                }
                Some(Fault::Degrade) | None => {
                    let outcome = body(StageCtx { attempt, adapt, tel: self.tel })
                        .map_err(|e| self.stage_failed(stage, e))?;
                    match outcome {
                        StageTry::Done(v) => {
                            aspan.tag("result", "done");
                            let o = if let Some(Fault::Degrade) = injected {
                                StageOutcome::Degraded {
                                    reason: format!("injected degradation (invocation {invocation})"),
                                }
                            } else if attempt == 0 {
                                StageOutcome::Completed
                            } else {
                                StageOutcome::Recovered { attempts: attempt + 1 }
                            };
                            self.record(stage, attempt + 1, o);
                            return Ok(v);
                        }
                        StageTry::Degraded(v, reason) => {
                            aspan.tag("result", "degraded");
                            self.record(stage, attempt + 1, StageOutcome::Degraded { reason });
                            return Ok(v);
                        }
                        StageTry::Retry { reason, salvage: s } => {
                            aspan.tag("result", "retry");
                            aspan.tag("reason", &reason);
                            if s.is_some() {
                                salvage = s;
                            }
                            last_reason = reason;
                            adapt += 1;
                        }
                    }
                }
            }
            attempt += 1;
            let deadline_blown = budget
                .soft_deadline_s
                .is_some_and(|d| started.elapsed().as_secs_f64() > d);
            if attempt >= max_attempts || deadline_blown {
                let why = if deadline_blown && attempt < max_attempts {
                    format!("{last_reason}; soft deadline exceeded after {attempt} attempt(s)")
                } else {
                    format!("{last_reason} ({attempt} attempt(s))")
                };
                return match salvage.take() {
                    Some((v, note)) => {
                        self.record(stage, attempt, StageOutcome::Degraded { reason: format!("{note}: {why}") });
                        Ok(v)
                    }
                    None => Err(self.budget_exhausted(stage, attempt, why)),
                };
            }
        }
    }

    fn record(&mut self, stage: &'static str, attempts: usize, outcome: StageOutcome) {
        self.tel.progress(stage, &outcome.to_string(), attempts);
        self.statuses.insert(stage.to_string(), StageStatus { outcome, attempts });
    }

    fn partial(&self) -> Box<PartialFlow> {
        Box::new(PartialFlow { statuses: self.statuses.clone() })
    }

    fn stage_failed(&self, stage: &'static str, source: StageFailure) -> FlowError {
        FlowError::Stage { stage, source, partial: self.partial() }
    }

    fn budget_exhausted(&self, stage: &'static str, attempts: usize, reason: String) -> FlowError {
        FlowError::BudgetExhausted { stage, attempts, reason, partial: self.partial() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_matching_accepts_full_key_and_bare_name() {
        assert!(stage_matches("7_route", "7_route"));
        assert!(stage_matches("route", "7_route"));
        assert!(stage_matches("clock_gating", "2_clock_gating"));
        assert!(!stage_matches("route", "8_litho"));
        assert!(!stage_matches("7_route", "route"));
    }

    #[test]
    fn fault_plan_is_deterministic() {
        let plan = FaultPlan::random(42, 200);
        for stage in ["1_synthesis", "7_route", "10_dft"] {
            for inv in 0..8 {
                assert_eq!(plan.fault_for(stage, inv), plan.fault_for(stage, inv));
            }
        }
        // ~20% of attempts should be hit — loose sanity bound.
        let hits = (0..1000)
            .filter(|&i| plan.fault_for("7_route", i).is_some())
            .count();
        assert!(hits > 100 && hits < 320, "hit rate {hits}/1000 out of range");
    }

    #[test]
    fn fault_plan_rules_match_by_invocation() {
        let plan = FaultPlan::new(1).with("route", Some(1), Fault::Fail);
        assert_eq!(plan.fault_for("7_route", 0), None);
        assert_eq!(plan.fault_for("7_route", 1), Some(Fault::Fail));
        assert_eq!(plan.fault_for("7_route", 2), None);
        let always = FaultPlan::new(1).with("7_route", None, Fault::Degrade);
        assert_eq!(always.fault_for("7_route", 5), Some(Fault::Degrade));
    }

    #[test]
    fn parse_accepts_all_forms() {
        assert_eq!(FaultPlan::parse("smoke", 7).unwrap(), FaultPlan::smoke(7));
        assert_eq!(FaultPlan::parse("random:50", 7).unwrap(), FaultPlan::random(7, 50));
        let plan = FaultPlan::parse("route=fail@0, litho=timeout", 7).unwrap();
        assert_eq!(plan.rules.len(), 2);
        assert_eq!(plan.rules[0].fault, Fault::Fail);
        assert_eq!(plan.rules[0].invocation, Some(0));
        assert_eq!(plan.rules[1].fault, Fault::Timeout);
        assert_eq!(plan.rules[1].invocation, None);
        // Full stage keys work just like bare names.
        let full = FaultPlan::parse("7_route=degrade", 7).unwrap();
        assert_eq!(full.rules[0].stage, "7_route");
    }

    #[test]
    fn parse_rejects_an_empty_spec_with_a_typed_error() {
        assert_eq!(FaultPlan::parse("", 7), Err(FaultSpecError::Empty));
        assert_eq!(FaultPlan::parse("  , ,", 7), Err(FaultSpecError::Empty));
    }

    #[test]
    fn parse_rejects_a_bad_stage_name_with_a_typed_error() {
        assert_eq!(
            FaultPlan::parse("warp_drive=fail", 7),
            Err(FaultSpecError::UnknownStage("warp_drive".into()))
        );
        // An order-prefixed key with the wrong prefix is not a real stage.
        assert_eq!(
            FaultPlan::parse("9_route=fail", 7),
            Err(FaultSpecError::UnknownStage("9_route".into()))
        );
        // Errors surface even when earlier rules are valid.
        assert_eq!(
            FaultPlan::parse("route=fail,bogus=timeout", 7),
            Err(FaultSpecError::UnknownStage("bogus".into()))
        );
    }

    #[test]
    fn parse_rejects_an_out_of_range_invocation_with_a_typed_error() {
        assert_eq!(
            FaultPlan::parse("route=fail@-1", 7),
            Err(FaultSpecError::BadInvocation("-1".into()))
        );
        assert_eq!(
            FaultPlan::parse("route=fail@99999999999999999999", 7),
            Err(FaultSpecError::BadInvocation("99999999999999999999".into()))
        );
        assert_eq!(
            FaultPlan::parse("route=fail@first", 7),
            Err(FaultSpecError::BadInvocation("first".into()))
        );
    }

    #[test]
    fn parse_rejects_random_zero_and_out_of_range_per_mille() {
        assert_eq!(FaultPlan::parse("random:0", 7), Err(FaultSpecError::ZeroRandom));
        assert_eq!(
            FaultPlan::parse("random:1001", 7),
            Err(FaultSpecError::BadPerMille("1001".into()))
        );
        assert_eq!(
            FaultPlan::parse("random:often", 7),
            Err(FaultSpecError::BadPerMille("often".into()))
        );
    }

    #[test]
    fn parse_rejects_malformed_rules_and_unknown_faults() {
        assert_eq!(FaultPlan::parse("route", 7), Err(FaultSpecError::BadRule("route".into())));
        assert_eq!(
            FaultPlan::parse("route=explode", 7),
            Err(FaultSpecError::UnknownFault("explode".into()))
        );
    }

    #[test]
    fn budgets_resolve_overrides_by_bare_name() {
        let budgets = StageBudgets::default()
            .set("route", StageBudget { max_attempts: 5, soft_deadline_s: Some(1.0) });
        assert_eq!(budgets.for_stage("7_route").max_attempts, 5);
        assert_eq!(budgets.for_stage("8_litho").max_attempts, 2);
    }
}
