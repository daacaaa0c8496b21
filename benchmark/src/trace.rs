//! Benchmark-side spans: recorded around the calls into each layer, kept in
//! memory, written once at exit. Off (`enabled = false`) in the runs that
//! produce end-to-end metrics; the phase timers still return their
//! durations so set-up and op walls are measured the same way in both modes.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer's epoch.
pub struct SpanRec {
    pub name: String,
    /// Crate/module the time belongs to (`logic`, `route`, `store`, ...).
    pub layer: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    /// Op the span belongs to (0 = set-up and probes).
    pub op: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

/// Per-layer rollup of the recorded spans.
pub struct LayerRow {
    pub layer: &'static str,
    pub spans: usize,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds since the epoch — the clock every span is stamped with.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Records a finished span; returns its id for use as a parent. A
    /// disabled tracer records nothing and returns `None`.
    pub fn record(
        &self,
        name: &str,
        layer: &'static str,
        start_s: f64,
        end_s: f64,
        parent: Option<usize>,
        op: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self
            .spans
            .lock()
            .expect("no span recorder panics while holding the lock");
        spans.push(SpanRec {
            name: name.to_string(),
            layer,
            start_s,
            end_s,
            parent,
            op,
        });
        Some(spans.len() - 1)
    }

    /// Opens a span whose children are recorded before it closes: reserves
    /// the id now, and [`close`](Self::close) stamps the end.
    pub fn open(
        &self,
        name: &str,
        layer: &'static str,
        parent: Option<usize>,
        op: u64,
    ) -> Option<usize> {
        let now = self.now();
        self.record(name, layer, now, now, parent, op)
    }

    pub fn close(&self, id: Option<usize>) {
        if let Some(id) = id {
            let now = self.now();
            let mut spans = self
                .spans
                .lock()
                .expect("no span recorder panics while holding the lock");
            spans[id].end_s = now;
        }
    }

    /// Times `f` and records it as a leaf span; returns the result and the
    /// elapsed seconds (measured whether or not tracing is on).
    pub fn time<T>(
        &self,
        name: &str,
        layer: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, layer, start, end, parent, op);
        (out, end - start)
    }

    /// `layer / spans / total_s / self_s`: a span's self time is its
    /// duration minus the part of it its direct children cover.
    pub fn layer_table(&self) -> Vec<LayerRow> {
        let spans = self
            .spans
            .lock()
            .expect("no span recorder panics while holding the lock");
        let mut child_cover = vec![0.0f64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                let lo = s.start_s.max(spans[p].start_s);
                let hi = s.end_s.min(spans[p].end_s);
                child_cover[p] += (hi - lo).max(0.0);
            }
        }
        let mut rows: Vec<LayerRow> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_s - s.start_s;
            let own = (dur - child_cover[i]).max(0.0);
            match rows.iter_mut().find(|r| r.layer == s.layer) {
                Some(r) => {
                    r.spans += 1;
                    r.total_s += dur;
                    r.self_s += own;
                }
                None => rows.push(LayerRow {
                    layer: s.layer,
                    spans: 1,
                    total_s: dur,
                    self_s: own,
                }),
            }
        }
        rows
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): complete events,
    /// one track per op, parent and op id in `args`.
    pub fn chrome_trace_json(&self) -> String {
        let spans = self
            .spans
            .lock()
            .expect("no span recorder panics while holding the lock");
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.1},\"dur\":{:.1},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                eda::core::daemon::wire::escape(&s.name),
                s.layer,
                s.start_s * 1e6,
                (s.end_s - s.start_s) * 1e6,
                s.op,
                i,
                parent,
                s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// The layer table as printed and as written beside the trace.
    pub fn layer_table_text(&self) -> String {
        let mut table = format!(
            "{:<10} {:>6} {:>10} {:>10}\n",
            "layer", "spans", "total_s", "self_s"
        );
        for r in self.layer_table() {
            let _ = writeln!(
                table,
                "{:<10} {:>6} {:>10.4} {:>10.4}",
                r.layer, r.spans, r.total_s, r.self_s
            );
        }
        table
    }

    /// Writes `<dir>/<stem>.trace.json` and `<dir>/<stem>.layers.txt`.
    pub fn write(&self, dir: &Path, stem: &str) -> std::io::Result<()> {
        std::fs::write(
            dir.join(format!("{stem}.trace.json")),
            self.chrome_trace_json(),
        )?;
        std::fs::write(
            dir.join(format!("{stem}.layers.txt")),
            self.layer_table_text(),
        )
    }
}
