//! Deterministic span tracing and metric registry for the flow.
//!
//! Every [`run_flow`](crate::flow::run_flow) call records a tree of spans
//! (flow → stage → attempt → kernel) and a registry of typed metrics
//! (counters, gauges, and histograms with fixed bucket edges) capturing
//! per-stage QoR provenance: AIG node counts around every rewrite pass,
//! router rip-up iterations, OPC fragment moves, fault-sim pattern blocks,
//! and the shape of the placer's stripe dispatch, the flow's one parallel
//! kernel.
//!
//! The design splits hard along the determinism boundary:
//!
//! * the **deterministic section** — span structure, names, tags, and every
//!   metric — is a pure function of the design and config. It is
//!   bit-identical across runs, machines, and thread counts, which is what
//!   lets `tests/golden.rs` pin it byte-for-byte
//!   ([`TelemetrySnapshot::deterministic_text`]);
//! * the **wall section** ([`TelemetrySnapshot::wall`]) holds everything
//!   clock- or thread-shaped: span start/duration, the stripe dispatch's
//!   resolved worker count and projected speedup, and peak RSS. It feeds
//!   the Chrome-trace and folded-stack exports and is excluded from golden
//!   comparison.
//!
//! The collector uses interior mutability (`RefCell`) because flow
//! orchestration is single-threaded: stage bodies borrow the collector
//! through a shared [`Telemetry`] handle on
//! [`StageCtx`](crate::harness::StageCtx) while the supervisor holds its
//! own reference. The placer's stripe workers never touch the collector —
//! the placer returns a [`StripeStats`] which the orchestrator records.

use eda_netlist::codec::escape;
use eda_place::StripeStats;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// What a span represents in the flow hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The whole `run_flow` call.
    Flow,
    /// One supervised stage (including skipped stages).
    Stage,
    /// One attempt of a stage under the harness (retries are siblings).
    Attempt,
    /// One kernel dispatch or optimization pass inside an attempt.
    Kernel,
}

impl SpanKind {
    /// Stable lowercase name used in every export.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Flow => "flow",
            SpanKind::Stage => "stage",
            SpanKind::Attempt => "attempt",
            SpanKind::Kernel => "kernel",
        }
    }
}

impl std::fmt::Display for SpanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One node of the span tree — deterministic fields only.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Dense id; also the index into [`TelemetrySnapshot::spans`] and
    /// [`TelemetrySnapshot::wall`].
    pub id: usize,
    /// Parent span id (`None` only for the root flow span).
    pub parent: Option<usize>,
    /// Hierarchy level.
    pub kind: SpanKind,
    /// Span name (stage key, `try<invocation>`, or kernel name).
    pub name: String,
    /// Deterministic key→value annotations (outcomes, counts, injected
    /// faults). Values must never encode wall-clock or thread identity.
    pub tags: BTreeMap<String, String>,
}

/// Non-deterministic timing for one span, parallel to the span list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WallSpan {
    /// Start offset from the collector's epoch, seconds.
    pub start_s: f64,
    /// Wall-clock duration, seconds.
    pub dur_s: f64,
    /// Resolved worker count for kernel dispatches (0 = not a parallel
    /// dispatch).
    pub threads: usize,
    /// A parallel dispatch's projected speedup over one worker, in
    /// `[1, threads]` ([`StripeStats::projected_speedup`]); 0 where
    /// `threads` is.
    pub speedup: f64,
    /// Process peak resident-set size (`VmHWM`) in bytes, sampled when the
    /// span closed; 0 while a span is open or where `/proc` is
    /// unavailable. A high-water mark, so the sequence over successive
    /// spans is monotone non-decreasing. Lives in the wall section — never
    /// in the deterministic text golden snapshots pin.
    pub peak_rss_bytes: u64,
}

/// Peak resident-set size of this process in bytes — the `VmHWM` line of
/// `/proc/self/status` — or 0 where unavailable (non-Linux). The kernel
/// reports a high-water mark, so successive reads are monotone
/// non-decreasing. Machine state, not QoR: recorded only in the telemetry
/// wall section so golden snapshots stay bit-stable.
pub fn read_peak_rss_bytes() -> u64 {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").unwrap_or_default())
}

fn parse_vm_hwm(status: &str) -> u64 {
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 =
                rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// A histogram with fixed bucket edges, so its serialized form is
/// bit-stable: bucket `i` counts samples `v <= edges[i]` (first match), and
/// the final bucket is the overflow bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Ascending bucket upper bounds.
    pub edges: Vec<f64>,
    /// Bucket counts; `len() == edges.len() + 1` (last = overflow).
    pub counts: Vec<u64>,
}

impl Histogram {
    pub(crate) fn new(edges: &[f64]) -> Histogram {
        Histogram { edges: edges.to_vec(), counts: vec![0; edges.len() + 1] }
    }

    pub(crate) fn observe(&mut self, value: f64) {
        let idx = self.edges.iter().position(|e| value <= *e).unwrap_or(self.edges.len());
        self.counts[idx] += 1;
    }

    /// Total samples observed.
    pub fn samples(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// A typed metric in the registry.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonic sum of `u64` increments.
    Counter(u64),
    /// Last-written `f64` value.
    Gauge(f64),
    /// Fixed-edge histogram.
    Histogram(Histogram),
}

/// The exported telemetry of one flow run, carried on
/// [`FlowReport`](crate::report::FlowReport).
///
/// `spans` and `metrics` are deterministic; `wall` is not. The two sections
/// are index-aligned: `wall[i]` times `spans[i]`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySnapshot {
    /// The span tree in creation order (parents precede children).
    pub spans: Vec<Span>,
    /// The metric registry, keyed by metric name.
    pub metrics: BTreeMap<String, Metric>,
    /// Non-deterministic wall-clock section, index-aligned with `spans`.
    pub wall: Vec<WallSpan>,
}

struct Inner {
    epoch: Instant,
    spans: Vec<Span>,
    wall: Vec<WallSpan>,
    /// Open-span stack (ids); innermost last.
    stack: Vec<usize>,
    /// Start instant of each span, for duration on close.
    started: Vec<Instant>,
    metrics: BTreeMap<String, Metric>,
}

/// A live per-stage progress callback: `(stage, outcome, attempts)`, fired
/// by the supervisor the moment a stage's status is recorded (completed,
/// recovered, degraded, skipped, or replayed from cache). Observation-only:
/// nothing the flow computes may depend on it. The flow daemon installs one
/// to stream stage events to clients while a request is still running.
pub type ProgressFn = Box<dyn FnMut(&str, &str, usize) + Send>;

/// The live collector. One per `run_flow` call; cheap shared handles
/// (`&Telemetry`) are threaded to the supervisor and stage bodies.
pub struct Telemetry {
    inner: RefCell<Inner>,
    /// Separate cell so a callback that records metrics re-entrantly never
    /// conflicts with the borrow held while invoking it.
    observer: RefCell<Option<ProgressFn>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Telemetry")
            .field("spans", &inner.spans.len())
            .field("metrics", &inner.metrics.len())
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A fresh collector with its epoch at "now".
    pub fn new() -> Telemetry {
        Telemetry {
            inner: RefCell::new(Inner {
                epoch: Instant::now(),
                spans: Vec::new(),
                wall: Vec::new(),
                stack: Vec::new(),
                started: Vec::new(),
                metrics: BTreeMap::new(),
            }),
            observer: RefCell::new(None),
        }
    }

    /// Installs a live per-stage progress observer (replacing any previous
    /// one). The callback fires once per recorded stage status, in stage
    /// order, on the thread running the flow.
    pub fn set_observer(&self, observer: ProgressFn) {
        *self.observer.borrow_mut() = Some(observer);
    }

    /// Fires the progress observer, if one is installed.
    pub(crate) fn progress(&self, stage: &str, outcome: &str, attempts: usize) {
        if let Some(f) = self.observer.borrow_mut().as_mut() {
            f(stage, outcome, attempts);
        }
    }

    /// Opens a span under the innermost open span. The returned guard
    /// closes it on drop; spans therefore nest strictly with scope.
    pub fn span(&self, kind: SpanKind, name: &str) -> SpanGuard<'_> {
        let mut inner = self.inner.borrow_mut();
        let id = inner.spans.len();
        let parent = inner.stack.last().copied();
        let now = Instant::now();
        let start_s = now.duration_since(inner.epoch).as_secs_f64();
        inner.spans.push(Span {
            id,
            parent,
            kind,
            name: name.to_string(),
            tags: BTreeMap::new(),
        });
        inner.wall.push(WallSpan { start_s, ..WallSpan::default() });
        inner.started.push(now);
        inner.stack.push(id);
        SpanGuard { tel: self, id }
    }

    /// Records a finished parallel-kernel dispatch as a closed child span
    /// of the innermost open span. The deterministic side carries the stripe
    /// count as `chunks` (a pure function of the input and config); worker
    /// count, projected speedup and wall clock go to the wall section.
    pub fn kernel(&self, name: &str, stats: &StripeStats) {
        let mut inner = self.inner.borrow_mut();
        let id = inner.spans.len();
        let parent = inner.stack.last().copied();
        let now_s = Instant::now().duration_since(inner.epoch).as_secs_f64();
        let mut tags = BTreeMap::new();
        tags.insert("chunks".to_string(), stats.stripes.to_string());
        inner.spans.push(Span { id, parent, kind: SpanKind::Kernel, name: name.to_string(), tags });
        inner.wall.push(WallSpan {
            start_s: (now_s - stats.wall_s).max(0.0),
            dur_s: stats.wall_s,
            threads: stats.threads,
            speedup: stats.projected_speedup(),
            peak_rss_bytes: read_peak_rss_bytes(),
        });
        inner.started.push(Instant::now());
    }

    /// Adds a tag to the innermost open span (no-op when none is open).
    pub fn tag(&self, key: &str, value: impl std::fmt::Display) {
        let mut inner = self.inner.borrow_mut();
        if let Some(&id) = inner.stack.last() {
            inner.spans[id].tags.insert(key.to_string(), value.to_string());
        }
    }

    /// Adds `delta` to the named counter (created at 0).
    pub fn count(&self, name: &str, delta: u64) {
        let mut inner = self.inner.borrow_mut();
        match inner.metrics.entry(name.to_string()).or_insert(Metric::Counter(0)) {
            Metric::Counter(c) => *c += delta,
            _ => debug_assert!(false, "metric {name} is not a counter"),
        }
    }

    /// Sets the named gauge.
    pub fn gauge(&self, name: &str, value: f64) {
        let mut inner = self.inner.borrow_mut();
        inner.metrics.insert(name.to_string(), Metric::Gauge(value));
    }

    /// Observes `value` into the named fixed-edge histogram. The first
    /// observation registers the edges; later calls reuse them.
    pub fn observe(&self, name: &str, edges: &[f64], value: f64) {
        let mut inner = self.inner.borrow_mut();
        match inner
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new(edges)))
        {
            Metric::Histogram(h) => h.observe(value),
            _ => debug_assert!(false, "metric {name} is not a histogram"),
        }
    }

    fn close(&self, id: usize) {
        let mut inner = self.inner.borrow_mut();
        let dur = inner.started[id].elapsed().as_secs_f64();
        inner.wall[id].dur_s = dur;
        inner.wall[id].peak_rss_bytes = read_peak_rss_bytes();
        // Spans close in LIFO order (guards are scope-bound), so `id` is
        // the top of the stack; tolerate out-of-order drops regardless.
        if let Some(pos) = inner.stack.iter().rposition(|&s| s == id) {
            inner.stack.remove(pos);
        }
    }

    fn tag_span(&self, id: usize, key: &str, value: String) {
        let mut inner = self.inner.borrow_mut();
        inner.spans[id].tags.insert(key.to_string(), value);
    }

    /// A snapshot of everything recorded so far. Still-open spans get their
    /// elapsed time so far as duration.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let inner = self.inner.borrow();
        let mut wall = inner.wall.clone();
        let rss_now = read_peak_rss_bytes();
        for &id in &inner.stack {
            wall[id].dur_s = inner.started[id].elapsed().as_secs_f64();
            wall[id].peak_rss_bytes = rss_now;
        }
        TelemetrySnapshot { spans: inner.spans.clone(), metrics: inner.metrics.clone(), wall }
    }
}

/// Closes its span on drop; [`SpanGuard::tag`] annotates that specific
/// span even while children are open.
pub struct SpanGuard<'t> {
    tel: &'t Telemetry,
    id: usize,
}

impl SpanGuard<'_> {
    /// Tags this guard's span (not the innermost open one).
    pub fn tag(&self, key: &str, value: impl std::fmt::Display) {
        self.tel.tag_span(self.id, key, value.to_string());
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tel.close(self.id);
    }
}

/// `f64` as a bit-exact lowercase hex word, matching the flow-state body codec.
fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// A JSON string literal for the hand-rolled exports, by the wire
/// protocol's escaping rule.
fn json_str(s: &str) -> String {
    format!("\"{}\"", crate::daemon::wire::escape(s))
}

impl TelemetrySnapshot {
    /// The canonical deterministic section: spans (structure, kinds, names,
    /// tags) and the full metric registry, one token-separated record per
    /// line, `f64` as bit-exact hex. Excludes the wall section entirely —
    /// this text is byte-identical across runs and thread counts and is
    /// what `tests/golden.rs` pins.
    pub fn deterministic_text(&self) -> String {
        let mut out = String::new();
        out.push_str("telemetry v1\n");
        out.push_str(&format!("spans {}\n", self.spans.len()));
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "s {} {} {} {} {}",
                s.id,
                parent,
                s.kind.as_str(),
                escape(&s.name),
                s.tags.len()
            ));
            for (k, v) in &s.tags {
                out.push_str(&format!(" {}={}", escape(k), escape(v)));
            }
            out.push('\n');
        }
        out.push_str(&format!("metrics {}\n", self.metrics.len()));
        for (name, m) in &self.metrics {
            match m {
                Metric::Counter(c) => out.push_str(&format!("c {} {c}\n", escape(name))),
                Metric::Gauge(g) => {
                    out.push_str(&format!("g {} {} # {g}\n", escape(name), bits(*g)))
                }
                Metric::Histogram(h) => {
                    out.push_str(&format!("h {} {}", escape(name), h.edges.len()));
                    for e in &h.edges {
                        out.push_str(&format!(" {e}"));
                    }
                    out.push_str(" |");
                    for c in &h.counts {
                        out.push_str(&format!(" {c}"));
                    }
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto) JSON: one complete
    /// (`"ph":"X"`) event per span, microsecond timestamps from the wall
    /// section, tags as `args`. All events share one pid/tid so the viewer
    /// reconstructs nesting from time containment.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let w = &self.wall[i];
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{",
                json_str(&s.name),
                json_str(s.kind.as_str()),
                w.start_s * 1e6,
                w.dur_s * 1e6,
            ));
            let mut first = true;
            for (k, v) in &s.tags {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("{}:{}", json_str(k), json_str(v)));
            }
            if w.threads > 0 {
                if !first {
                    out.push(',');
                }
                out.push_str(&format!("\"threads\":\"{}\",\"speedup\":\"{:.2}\"", w.threads, w.speedup));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// Flat metrics JSON: counters as integers, gauges as floats,
    /// histograms as `{edges, counts, samples}` objects. Key order is the
    /// registry's (BTreeMap) order, so the file is deterministic.
    pub fn metrics_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!("  {}: ", json_str(name)));
            match m {
                Metric::Counter(c) => out.push_str(&c.to_string()),
                Metric::Gauge(g) => out.push_str(&format!("{g:?}")),
                Metric::Histogram(h) => {
                    out.push_str("{\"edges\":[");
                    for (j, e) in h.edges.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("{e:?}"));
                    }
                    out.push_str("],\"counts\":[");
                    for (j, c) in h.counts.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&c.to_string());
                    }
                    out.push_str(&format!("],\"samples\":{}}}", h.samples()));
                }
            }
        }
        out.push_str("\n}\n");
        out
    }

    /// Folded-stack text for flamegraph tools: one `path;to;span weight`
    /// line per span with self-time weight in integer microseconds
    /// (wall time minus direct children's wall time).
    pub fn folded_stacks(&self) -> String {
        let mut child_time = vec![0.0f64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_time[p] += self.wall[i].dur_s;
            }
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let self_us = ((self.wall[i].dur_s - child_time[i]).max(0.0) * 1e6) as u64;
            if self_us == 0 {
                continue;
            }
            let mut path = vec![s.name.replace([';', ' '], "_")];
            let mut cur = s.parent;
            while let Some(p) = cur {
                path.push(self.spans[p].name.replace([';', ' '], "_"));
                cur = self.spans[p].parent;
            }
            path.reverse();
            out.push_str(&format!("{} {self_us}\n", path.join(";")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Telemetry {
        let tel = Telemetry::new();
        let flow = tel.span(SpanKind::Flow, "flow");
        {
            let stage = tel.span(SpanKind::Stage, "1_synthesis");
            {
                let attempt = tel.span(SpanKind::Attempt, "try0");
                attempt.tag("injected", "fail");
                tel.kernel(
                    "aig:rewrite",
                    &StripeStats { threads: 4, stripes: 8, wall_s: 0.25, cpu_s: 0.8, critical_s: 0.2 },
                );
                tel.count("synth.aig_nodes_after", 123);
            }
            stage.tag("outcome", "completed");
        }
        tel.gauge("route.overflow", 0.0);
        tel.observe("opc.rms_epe_nm", &[1.0, 2.0, 4.0], 1.5);
        tel.observe("opc.rms_epe_nm", &[1.0, 2.0, 4.0], 9.0);
        drop(flow);
        tel
    }

    #[test]
    fn spans_nest_and_close_in_scope_order() {
        let snap = sample().snapshot();
        assert_eq!(snap.spans.len(), 4);
        assert_eq!(snap.spans[0].parent, None);
        assert_eq!(snap.spans[1].parent, Some(0));
        assert_eq!(snap.spans[2].parent, Some(1));
        assert_eq!(snap.spans[3].parent, Some(2), "kernel nests under the attempt");
        assert_eq!(snap.spans[3].kind, SpanKind::Kernel);
        assert_eq!(snap.spans[3].tags["chunks"], "8");
        assert_eq!(snap.wall.len(), snap.spans.len());
        assert_eq!(snap.wall[3].threads, 4);
        assert_eq!(snap.wall[3].speedup, 4.0);
    }

    #[test]
    fn metrics_are_typed_and_histograms_bucket_with_overflow() {
        let snap = sample().snapshot();
        assert_eq!(snap.metrics["synth.aig_nodes_after"], Metric::Counter(123));
        assert_eq!(snap.metrics["route.overflow"], Metric::Gauge(0.0));
        let Metric::Histogram(h) = &snap.metrics["opc.rms_epe_nm"] else {
            panic!("histogram expected");
        };
        assert_eq!(h.edges, vec![1.0, 2.0, 4.0]);
        assert_eq!(h.counts, vec![0, 1, 0, 1], "1.5 in (1,2], 9.0 in overflow");
        assert_eq!(h.samples(), 2);
    }

    #[test]
    fn deterministic_text_has_no_wall_clock_content() {
        let a = sample().snapshot();
        let b = sample().snapshot();
        // Wall sections differ between the two collections, but the
        // deterministic text must not.
        assert_eq!(a.deterministic_text(), b.deterministic_text());
        assert!(a.deterministic_text().contains("s 3 2 kernel aig:rewrite 1 chunks=8"));
    }

    #[test]
    fn exports_are_well_formed() {
        let snap = sample().snapshot();
        let trace = snap.chrome_trace_json();
        assert!(trace.starts_with('{') && trace.trim_end().ends_with('}'));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"cat\":\"attempt\""));
        assert!(trace.contains("\"chunks\":\"8\",\"threads\":\"4\",\"speedup\":\"4.00\""));
        let metrics = snap.metrics_json();
        assert!(metrics.contains("\"synth.aig_nodes_after\": 123"));
        assert!(metrics.contains("\"samples\":2"));
        let folded = snap.folded_stacks();
        for line in folded.lines() {
            let (path, weight) = line.rsplit_once(' ').expect("weight separator");
            assert!(!path.is_empty());
            weight.parse::<u64>().expect("integer weight");
        }
    }

    #[test]
    fn peak_rss_is_monotone_and_stays_out_of_the_deterministic_text() {
        let snap = sample().snapshot();
        if cfg!(target_os = "linux") {
            assert!(snap.wall[0].peak_rss_bytes > 0, "VmHWM readable on Linux");
        }
        // `sample` closes its spans in reverse id order (the kernel span is
        // recorded closed, then the attempt, the stage and the flow close), so
        // walking them that way must never see the high-water mark decrease.
        // Sorting by `start_s + dur_s` instead would misplace the kernel: its
        // 0.25 s wall is synthetic, so it would land after its parents.
        let by_close: Vec<u64> = snap.wall.iter().rev().map(|w| w.peak_rss_bytes).collect();
        assert!(by_close.windows(2).all(|w| w[0] <= w[1]), "high-water mark is monotone");
        // The gauge lives in the wall section only: the pinned text never
        // mentions it, so golden snapshots stay bit-stable.
        assert!(!sample().snapshot().deterministic_text().contains("rss"));
    }

    #[test]
    fn vm_hwm_parses_and_tolerates_garbage() {
        assert_eq!(parse_vm_hwm("VmPeak:\t  100 kB\nVmHWM:\t   5164 kB\n"), 5164 * 1024);
        assert_eq!(parse_vm_hwm(""), 0);
        assert_eq!(parse_vm_hwm("VmHWM:\tnot a number\n"), 0);
        assert_eq!(parse_vm_hwm("no such line\n"), 0);
    }

    #[test]
    fn escaping_keeps_records_single_line() {
        let tel = Telemetry::new();
        let s = tel.span(SpanKind::Stage, "odd name%with\nnewline");
        s.tag("why", "two words");
        drop(s);
        let text = tel.snapshot().deterministic_text();
        assert_eq!(text.lines().count(), 4, "header + count + span + metrics header");
        assert!(text.contains("odd%20name%25with%0anewline"));
        assert!(text.contains("why=two%20words"));
    }
}
