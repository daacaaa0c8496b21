//! Supervised stage execution: typed outcomes, one recovery policy, and
//! deterministic fault injection.
//!
//! Every stage of [`run_flow`](crate::flow::run_flow) executes inside a
//! [`Supervisor`] harness. The harness records a typed [`StageStatus`] for
//! the report and drives the one recovery policy the flow has: a stage body
//! reports `Done`, `Degraded`, or `Retry` per attempt; on `Retry` the harness
//! banks whatever the attempt salvaged and runs the body once more; after
//! two attempts it accepts the salvage as a degraded result or surfaces a
//! typed error carrying everything completed so far.
//!
//! Fault injection is deterministic by construction: a [`FaultPlan`] keys
//! faults on `(stage name, invocation count)` — never on wall-clock time or
//! thread identity — so an injected failure reproduces bit-identically at
//! any thread count. The flow-level deadline is the one wall-clock input;
//! the flow's driver loop, not the harness, checks it before each stage, so
//! it only gates *whether the next stage starts* and never alters the
//! result of an attempt that ran.

use std::collections::BTreeMap;

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

/// Attempts a stage gets: the first run plus one retry.
const MAX_ATTEMPTS: usize = 2;

/// A fault the injection layer can force on a stage attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The attempt fails outright without running; the recovery policy
    /// decides whether a retry happens.
    Fail,
    /// The attempt runs and whatever it produced — result or salvage — is
    /// kept, but the stage is marked degraded and no retry is allowed.
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
    /// Number of *observed* failures so far: attempts whose body actually ran
    /// and asked for a retry (0 or 1). Recovery policies key their parameter
    /// escalation (bigger simulation budget, OPC backoff, relaxed tolerance) off
    /// this, not off the attempt count, so an injected fault that skips the
    /// body does not perturb the parameters — and therefore cannot change the
    /// QoR — of the retry.
    pub adapt: usize,
    /// The flow's telemetry collector: stage bodies record kernel spans and
    /// the work and diagnostic metrics of each attempt through this. A
    /// stage's results go into the report, never here. Recording is
    /// observation-only — nothing a body reads back from it may influence
    /// control flow.
    pub tel: &'t Telemetry,
}

/// The stage harness: runs every stage under the two-attempt policy, applies
/// the fault plan, and accumulates statuses.
pub(crate) struct Supervisor<'p> {
    plan: Option<&'p FaultPlan>,
    tel: &'p Telemetry,
    /// Statuses of stages finished so far, keyed by stage name — the one
    /// live copy: cache entries serialize it from here, and a cache hit
    /// replaces it with the map it loaded.
    pub statuses: BTreeMap<String, StageStatus>,
    /// Pending `cache` tag for the next stage span: a cache miss or an
    /// unreadable entry is noted here, then consumed when the recomputing
    /// stage opens its span.
    cache_note: Option<&'static str>,
}

impl<'p> Supervisor<'p> {
    pub fn new(plan: Option<&'p FaultPlan>, tel: &'p Telemetry) -> Supervisor<'p> {
        Supervisor { plan, tel, statuses: BTreeMap::new(), cache_note: None }
    }

    /// Records a stage-cache hit: the cached status becomes the stage's, and
    /// the stage gets a span tagged `cache=hit` in place of attempt spans —
    /// the body never ran. The driver counts `cache.hits` once the flow
    /// ends, so a replay that a restart recomputes is no hit.
    pub fn cache_hit(&mut self, stage: &'static str, status: StageStatus) {
        let span = self.tel.span(SpanKind::Stage, stage);
        span.tag("cache", "hit");
        span.tag("outcome", &status.outcome);
        span.tag("attempts", status.attempts);
        self.tel.progress(stage, &status.outcome.to_string(), status.attempts);
        self.statuses.insert(stage.to_string(), status);
    }

    /// Counts a stage-cache probe that found nothing to replay — `metric`
    /// says why: a plain miss (`cache.misses`) or an unreadable entry
    /// (`cache.errors`: corrupt, truncated, misaddressed). An entry that
    /// another writer compacts away after the run's store indexed it still
    /// hits: the store reads it from the version it indexed. The stage
    /// recomputes as if cold and its span is tagged `cache=<note>`.
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
        let mut salvage: Option<(T, String)> = None;
        let mut last_reason = String::new();
        let mut adapt = 0usize;
        for attempt in 1..=MAX_ATTEMPTS {
            // A stage runs once per flow, so its invocations are its attempts.
            let invocation = attempt as u64 - 1;
            let injected = self.plan.and_then(|p| p.fault_for(stage, invocation));
            let aspan = self.tel.span(SpanKind::Attempt, &format!("try{invocation}"));
            if let Some(fault) = injected {
                aspan.tag("injected", fault);
            }
            if injected == Some(Fault::Fail) {
                aspan.tag("result", "injected-fail");
                last_reason = format!("injected failure (invocation {invocation})");
                continue;
            }
            // An injected timeout lets the attempt run and keeps whatever it
            // produced — result or salvage — but the stage is marked degraded
            // with this note and no retry is allowed.
            let timeout = (injected == Some(Fault::Timeout))
                .then(|| format!("soft deadline exceeded (injected timeout, invocation {invocation})"));
            if timeout.is_some() {
                aspan.tag("result", "timeout");
            }
            let ran = |result: &str| {
                if timeout.is_none() {
                    aspan.tag("result", result);
                }
            };
            let noted = |why: String| match &timeout {
                Some(note) => format!("{why}; {note}"),
                None => why,
            };
            let tried = body(StageCtx { adapt, tel: self.tel })
                .map_err(|source| FlowError::Stage { stage, source, partial: self.partial() })?;
            let (value, outcome) = match tried {
                StageTry::Done(v) => {
                    ran("done");
                    let outcome = match (&timeout, injected) {
                        (Some(note), _) => StageOutcome::Degraded { reason: note.clone() },
                        // `Degrade`: `Fail` never reaches the body.
                        (None, Some(_)) => StageOutcome::Degraded {
                            reason: format!("injected degradation (invocation {invocation})"),
                        },
                        (None, None) if attempt == 1 => StageOutcome::Completed,
                        (None, None) => StageOutcome::Recovered { attempts: attempt },
                    };
                    (v, outcome)
                }
                StageTry::Degraded(v, why) => {
                    ran("degraded");
                    (v, StageOutcome::Degraded { reason: noted(why) })
                }
                StageTry::Retry { reason, salvage: s } if timeout.is_some() => match s {
                    Some((v, why)) => (v, StageOutcome::Degraded { reason: noted(why) }),
                    None => return Err(self.budget_exhausted(stage, attempt, noted(reason))),
                },
                StageTry::Retry { reason, salvage: s } => {
                    aspan.tag("result", "retry");
                    aspan.tag("reason", &reason);
                    salvage = s.or(salvage);
                    last_reason = reason;
                    adapt += 1;
                    continue;
                }
            };
            self.record(stage, attempt, outcome);
            return Ok(value);
        }
        let why = format!("{last_reason} ({MAX_ATTEMPTS} attempt(s))");
        match salvage {
            Some((v, note)) => {
                self.record(stage, MAX_ATTEMPTS, StageOutcome::Degraded { reason: format!("{note}: {why}") });
                Ok(v)
            }
            None => Err(self.budget_exhausted(stage, MAX_ATTEMPTS, why)),
        }
    }

    fn record(&mut self, stage: &'static str, attempts: usize, outcome: StageOutcome) {
        self.tel.progress(stage, &outcome.to_string(), attempts);
        self.statuses.insert(stage.to_string(), StageStatus { outcome, attempts });
    }

    fn partial(&self) -> Box<PartialFlow> {
        Box::new(PartialFlow { statuses: self.statuses.clone() })
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

    /// One scripted response of a stage body.
    #[derive(Clone, Copy)]
    enum Step {
        Done,
        Degraded,
        RetrySalvage,
        RetryBare,
        Hard,
    }

    /// Runs `script` as the body of `7_route` under `plan` and renders what
    /// the run settled as one line: the returned value or the error's
    /// `Display` text, the recorded status, the `adapt` each body invocation
    /// saw, and the attempt spans with their tags. What must agree with that
    /// line on every row is asserted here: one progress callback carrying the
    /// recorded status (none on an error), and the stage span's tags.
    fn observe(script: &[Step], plan: Option<&FaultPlan>) -> String {
        use std::sync::{Arc, Mutex};
        let tel = Telemetry::new();
        let progress = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&progress);
        tel.set_observer(Box::new(move |stage, outcome, attempts| {
            sink.lock().unwrap().push(format!("{stage} {attempts} {outcome}"));
        }));
        let mut sup = Supervisor::new(plan, &tel);
        let mut adapts = Vec::new();
        let result = sup.run_stage("7_route", |ctx| {
            let call = adapts.len();
            adapts.push(ctx.adapt);
            Ok(match script[call] {
                Step::Done => StageTry::Done(format!("v{call}")),
                Step::Degraded => StageTry::Degraded(format!("d{call}"), format!("weak{call}")),
                Step::RetrySalvage => StageTry::Retry {
                    reason: format!("bad{call}"),
                    salvage: Some((format!("s{call}"), format!("partial{call}"))),
                },
                Step::RetryBare => StageTry::Retry { reason: format!("bad{call}"), salvage: None },
                Step::Hard => return Err(StageFailure::Netlist(eda_netlist::NetlistError::UnknownName("n1".into()))),
            })
        });
        let tag = |k: &str, v: String| (k.to_string(), v);
        let (line, want_progress, want_tags) = match (&result, sup.statuses.get("7_route")) {
            (Ok(v), Some(s)) => (
                format!("ok {v} | {} x{}", s.outcome, s.attempts),
                vec![format!("7_route {} {}", s.attempts, s.outcome)],
                vec![tag("attempts", s.attempts.to_string()), tag("outcome", s.outcome.to_string())],
            ),
            (Err(e), None) => (format!("err {e}"), Vec::new(), vec![tag("outcome", format!("error: {e}"))]),
            _ => panic!("a status is recorded exactly when the stage returns Ok"),
        };
        assert_eq!(*progress.lock().unwrap(), want_progress, "progress callbacks of: {line}");
        let spans = tel.snapshot().spans;
        assert_eq!(spans[0].tags, BTreeMap::from_iter(want_tags), "stage span of: {line}");
        let tries: Vec<String> = spans[1..].iter().map(|s| format!("{}{:?}", s.name, s.tags)).collect();
        format!("{line} | adapt {adapts:?} | {}", tries.join(" ")).replace('"', "")
    }

    /// The supervisor's whole policy as a table: seven scripted bodies under
    /// six fault plans. The rows were recorded at commit 68c5189, on the
    /// N-attempt, per-stage-budgeted loop the two-attempt policy replaced.
    #[test]
    fn run_stage_policy_table() {
        use Step::*;
        let bodies: [(&str, &[Step]); 7] = [
            ("done", &[Done]),
            ("degraded", &[Degraded]),
            ("salvage,done", &[RetrySalvage, Done]),
            ("salvage,salvage", &[RetrySalvage, RetrySalvage]),
            ("bare,bare", &[RetryBare, RetryBare]),
            ("salvage,bare", &[RetrySalvage, RetryBare]),
            ("hard", &[Hard]),
        ];
        let rule = |invocation, fault| Some(FaultPlan::new(1).with("route", invocation, fault));
        let plans = [
            ("none", None),
            ("fail@0", rule(Some(0), Fault::Fail)),
            ("fail", rule(None, Fault::Fail)),
            ("timeout@0", rule(Some(0), Fault::Timeout)),
            ("timeout@1", rule(Some(1), Fault::Timeout)),
            ("degrade@0", rule(Some(0), Fault::Degrade)),
        ];
        let mut got = Vec::new();
        for (body, script) in &bodies {
            for (fault, plan) in &plans {
                got.push(format!("{body} under {fault}: {}", observe(script, plan.as_ref())));
            }
        }
        let moved: Vec<String> = (0..got.len().max(POLICY_TABLE.len()))
            .filter(|&i| got.get(i).map(String::as_str) != POLICY_TABLE.get(i).copied())
            .map(|i| format!("  got  {:?}\n  want {:?}", got.get(i), POLICY_TABLE.get(i)))
            .collect();
        assert!(moved.is_empty(), "{} row(s) moved:\n{}", moved.len(), moved.join("\n"));
    }

    #[rustfmt::skip]
    const POLICY_TABLE: [&str; 42] = [
        "done under none: ok v0 | completed x1 | adapt [0] | try0{result: done}",
        "done under fail@0: ok v0 | recovered after 2 attempts x2 | adapt [0] | try0{injected: fail, result: injected-fail} try1{result: done}",
        "done under fail: err stage `7_route` exhausted its budget after 2 attempt(s): injected failure (invocation 1) (2 attempt(s)) | adapt [] | try0{injected: fail, result: injected-fail} try1{injected: fail, result: injected-fail}",
        "done under timeout@0: ok v0 | degraded: soft deadline exceeded (injected timeout, invocation 0) x1 | adapt [0] | try0{injected: timeout, result: timeout}",
        "done under timeout@1: ok v0 | completed x1 | adapt [0] | try0{result: done}",
        "done under degrade@0: ok v0 | degraded: injected degradation (invocation 0) x1 | adapt [0] | try0{injected: degrade, result: done}",
        "degraded under none: ok d0 | degraded: weak0 x1 | adapt [0] | try0{result: degraded}",
        "degraded under fail@0: ok d0 | degraded: weak0 x2 | adapt [0] | try0{injected: fail, result: injected-fail} try1{result: degraded}",
        "degraded under fail: err stage `7_route` exhausted its budget after 2 attempt(s): injected failure (invocation 1) (2 attempt(s)) | adapt [] | try0{injected: fail, result: injected-fail} try1{injected: fail, result: injected-fail}",
        "degraded under timeout@0: ok d0 | degraded: weak0; soft deadline exceeded (injected timeout, invocation 0) x1 | adapt [0] | try0{injected: timeout, result: timeout}",
        "degraded under timeout@1: ok d0 | degraded: weak0 x1 | adapt [0] | try0{result: degraded}",
        "degraded under degrade@0: ok d0 | degraded: weak0 x1 | adapt [0] | try0{injected: degrade, result: degraded}",
        "salvage,done under none: ok v1 | recovered after 2 attempts x2 | adapt [0, 1] | try0{reason: bad0, result: retry} try1{result: done}",
        "salvage,done under fail@0: ok s0 | degraded: partial0: bad0 (2 attempt(s)) x2 | adapt [0] | try0{injected: fail, result: injected-fail} try1{reason: bad0, result: retry}",
        "salvage,done under fail: err stage `7_route` exhausted its budget after 2 attempt(s): injected failure (invocation 1) (2 attempt(s)) | adapt [] | try0{injected: fail, result: injected-fail} try1{injected: fail, result: injected-fail}",
        "salvage,done under timeout@0: ok s0 | degraded: partial0; soft deadline exceeded (injected timeout, invocation 0) x1 | adapt [0] | try0{injected: timeout, result: timeout}",
        "salvage,done under timeout@1: ok v1 | degraded: soft deadline exceeded (injected timeout, invocation 1) x2 | adapt [0, 1] | try0{reason: bad0, result: retry} try1{injected: timeout, result: timeout}",
        "salvage,done under degrade@0: ok v1 | recovered after 2 attempts x2 | adapt [0, 1] | try0{injected: degrade, reason: bad0, result: retry} try1{result: done}",
        "salvage,salvage under none: ok s1 | degraded: partial1: bad1 (2 attempt(s)) x2 | adapt [0, 1] | try0{reason: bad0, result: retry} try1{reason: bad1, result: retry}",
        "salvage,salvage under fail@0: ok s0 | degraded: partial0: bad0 (2 attempt(s)) x2 | adapt [0] | try0{injected: fail, result: injected-fail} try1{reason: bad0, result: retry}",
        "salvage,salvage under fail: err stage `7_route` exhausted its budget after 2 attempt(s): injected failure (invocation 1) (2 attempt(s)) | adapt [] | try0{injected: fail, result: injected-fail} try1{injected: fail, result: injected-fail}",
        "salvage,salvage under timeout@0: ok s0 | degraded: partial0; soft deadline exceeded (injected timeout, invocation 0) x1 | adapt [0] | try0{injected: timeout, result: timeout}",
        "salvage,salvage under timeout@1: ok s1 | degraded: partial1; soft deadline exceeded (injected timeout, invocation 1) x2 | adapt [0, 1] | try0{reason: bad0, result: retry} try1{injected: timeout, result: timeout}",
        "salvage,salvage under degrade@0: ok s1 | degraded: partial1: bad1 (2 attempt(s)) x2 | adapt [0, 1] | try0{injected: degrade, reason: bad0, result: retry} try1{reason: bad1, result: retry}",
        "bare,bare under none: err stage `7_route` exhausted its budget after 2 attempt(s): bad1 (2 attempt(s)) | adapt [0, 1] | try0{reason: bad0, result: retry} try1{reason: bad1, result: retry}",
        "bare,bare under fail@0: err stage `7_route` exhausted its budget after 2 attempt(s): bad0 (2 attempt(s)) | adapt [0] | try0{injected: fail, result: injected-fail} try1{reason: bad0, result: retry}",
        "bare,bare under fail: err stage `7_route` exhausted its budget after 2 attempt(s): injected failure (invocation 1) (2 attempt(s)) | adapt [] | try0{injected: fail, result: injected-fail} try1{injected: fail, result: injected-fail}",
        "bare,bare under timeout@0: err stage `7_route` exhausted its budget after 1 attempt(s): bad0; soft deadline exceeded (injected timeout, invocation 0) | adapt [0] | try0{injected: timeout, result: timeout}",
        "bare,bare under timeout@1: err stage `7_route` exhausted its budget after 2 attempt(s): bad1; soft deadline exceeded (injected timeout, invocation 1) | adapt [0, 1] | try0{reason: bad0, result: retry} try1{injected: timeout, result: timeout}",
        "bare,bare under degrade@0: err stage `7_route` exhausted its budget after 2 attempt(s): bad1 (2 attempt(s)) | adapt [0, 1] | try0{injected: degrade, reason: bad0, result: retry} try1{reason: bad1, result: retry}",
        "salvage,bare under none: ok s0 | degraded: partial0: bad1 (2 attempt(s)) x2 | adapt [0, 1] | try0{reason: bad0, result: retry} try1{reason: bad1, result: retry}",
        "salvage,bare under fail@0: ok s0 | degraded: partial0: bad0 (2 attempt(s)) x2 | adapt [0] | try0{injected: fail, result: injected-fail} try1{reason: bad0, result: retry}",
        "salvage,bare under fail: err stage `7_route` exhausted its budget after 2 attempt(s): injected failure (invocation 1) (2 attempt(s)) | adapt [] | try0{injected: fail, result: injected-fail} try1{injected: fail, result: injected-fail}",
        "salvage,bare under timeout@0: ok s0 | degraded: partial0; soft deadline exceeded (injected timeout, invocation 0) x1 | adapt [0] | try0{injected: timeout, result: timeout}",
        "salvage,bare under timeout@1: err stage `7_route` exhausted its budget after 2 attempt(s): bad1; soft deadline exceeded (injected timeout, invocation 1) | adapt [0, 1] | try0{reason: bad0, result: retry} try1{injected: timeout, result: timeout}",
        "salvage,bare under degrade@0: ok s0 | degraded: partial0: bad1 (2 attempt(s)) x2 | adapt [0, 1] | try0{injected: degrade, reason: bad0, result: retry} try1{reason: bad1, result: retry}",
        "hard under none: err stage `7_route` failed after 0 completed stage(s): unknown name `n1` | adapt [0] | try0{}",
        "hard under fail@0: err stage `7_route` failed after 0 completed stage(s): unknown name `n1` | adapt [0] | try0{injected: fail, result: injected-fail} try1{}",
        "hard under fail: err stage `7_route` exhausted its budget after 2 attempt(s): injected failure (invocation 1) (2 attempt(s)) | adapt [] | try0{injected: fail, result: injected-fail} try1{injected: fail, result: injected-fail}",
        "hard under timeout@0: err stage `7_route` failed after 0 completed stage(s): unknown name `n1` | adapt [0] | try0{injected: timeout, result: timeout}",
        "hard under timeout@1: err stage `7_route` failed after 0 completed stage(s): unknown name `n1` | adapt [0] | try0{}",
        "hard under degrade@0: err stage `7_route` failed after 0 completed stage(s): unknown name `n1` | adapt [0] | try0{injected: degrade}",
    ];
}
