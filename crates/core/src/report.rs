//! The flow's quality-of-results report.

use crate::harness::{StageOutcome, StageStatus};
use crate::telemetry::TelemetrySnapshot;
use eda_netlist::memo::fnv1a;
use std::collections::BTreeMap;

/// End-to-end QoR for one flow run: the one record of every stage's
/// results. The stages write their scalar outputs into it as they run (the
/// default is the empty record they start from); the driver fills the
/// run-level fields — names, area, wirelength, statuses, clocks and
/// telemetry — once the last stage is done.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlowReport {
    /// Flow preset name.
    pub flow: String,
    /// Design name.
    pub design: String,
    /// Target node name.
    pub node: String,
    /// Mapped cell area, µm² (cells only, pre-DFT).
    pub cell_area_um2: f64,
    /// Combinational cell count after synthesis.
    pub cells: usize,
    /// Flop count.
    pub flops: usize,
    /// Worst negative slack, ps (0 = met).
    pub wns_ps: f64,
    /// Critical path, ps.
    pub critical_path_ps: f64,
    /// Final placement wirelength, µm.
    pub hpwl_um: f64,
    /// Routed wirelength, g-cell units.
    pub routed_wirelength: u64,
    /// Via count.
    pub vias: u64,
    /// Routing overflow (0 = routable on this stack).
    pub overflow: u64,
    /// Masks needed for the critical layer.
    pub masks: u32,
    /// Stitches inserted by decomposition.
    pub stitches: usize,
    /// Whether decomposition is conflict-free.
    pub litho_legal: bool,
    /// RMS edge-placement error of the critical layer after OPC, nm
    /// (0 on single-patterned nodes, where no OPC runs).
    pub opc_rms_epe_nm: f64,
    /// Dynamic power, mW.
    pub dynamic_mw: f64,
    /// Leakage power, mW.
    pub leakage_mw: f64,
    /// Stuck-at test coverage in [0, 1] (0 if DFT disabled).
    pub test_coverage: f64,
    /// Scan-stitch wirelength, µm (0 if DFT disabled).
    pub scan_wirelength_um: f64,
    /// Decap cells inserted.
    pub decaps: usize,
    /// Power-grid hotspots remaining.
    pub hotspots: usize,
    /// Clock-tree skew, ps.
    pub clock_skew_ps: f64,
    /// Clock-tree wirelength, µm.
    pub clock_tree_um: f64,
    /// Worst static IR drop, mV.
    pub ir_drop_mv: f64,
    /// Hold violations at the fast corner.
    pub hold_violations: usize,
    /// Formal-equivalence verdict for synthesis: `Some(true)` = proven
    /// equivalent, `Some(false)` = counterexample found, `None` = not run
    /// or inconclusive.
    pub synthesis_verified: Option<bool>,
    /// Typed outcome of every stage the supervisor ran or skipped, keyed by
    /// stage name. Holds no wall-clock data: identical runs produce
    /// identical maps at any thread count.
    pub stage_status: BTreeMap<String, StageStatus>,
    /// Wall-clock seconds *this run* spent per stage, its cache probe and
    /// store included. A stage replayed from the stage cache reports what
    /// replaying it took (milliseconds), never the clock of the run that
    /// computed the entry. Every stage has an entry: it either ran or was
    /// replayed, and reports that cost.
    pub stage_seconds: BTreeMap<String, f64>,
    /// Span tree and metric registry recorded during the run. Its
    /// deterministic section is part of [`FlowReport::golden_text`];
    /// excluded from [`FlowReport::same_qor`] because a replayed stage
    /// records the span of its replay, not the kernels of the run that
    /// computed it.
    pub telemetry: TelemetrySnapshot,
}

impl FlowReport {
    /// Total runtime across stages: the sum of
    /// [`stage_seconds`](Self::stage_seconds), so for a warm or resumed run
    /// the time that run took, not the time its results once cost. This is
    /// the `wall_s` the provenance rows record.
    pub fn total_seconds(&self) -> f64 {
        self.stage_seconds.values().sum()
    }

    /// Composite score (lower is better): the tuner's objective. Mixes area,
    /// wirelength, timing violation, routability and power.
    pub fn score(&self) -> f64 {
        self.cell_area_um2 * 0.01
            + self.hpwl_um * 0.001
            + (-self.wns_ps).max(0.0) * 0.5
            + self.overflow as f64 * 10.0
            + (self.dynamic_mw + self.leakage_mw) * 2.0
            + self.scan_wirelength_um * 0.001
            + self.hotspots as f64 * 5.0
    }

    /// Bit-exact QoR equality: every deterministic field matches, including
    /// stage statuses. The wall-clock-shaped `stage_seconds` is excluded —
    /// it differs run to run by nature, and a warm cached run at 8 threads
    /// must match a cold run at 1. This is both the resume contract (a flow
    /// killed after any stage and rerun against its store satisfies
    /// `same_qor` against an uninterrupted run) and the stage-cache
    /// contract (a warm run satisfies it against the cold run that filled
    /// the cache).
    pub fn same_qor(&self, other: &FlowReport) -> bool {
        self.qor_text() == other.qor_text()
    }

    /// The canonical golden-snapshot text: every deterministic QoR field
    /// (`f64` as bit-exact hex, with a human-readable echo) followed by the
    /// telemetry's deterministic section. Excludes everything wall-clock- or
    /// thread-count-shaped (`stage_seconds`, the telemetry wall section,
    /// which holds the placer's worker count and speedup), so the text is
    /// byte-identical across runs and thread counts — `tests/golden.rs`
    /// asserts exactly that.
    pub fn golden_text(&self) -> String {
        let mut out = self.qor_text();
        out.push_str(&self.telemetry.deterministic_text());
        out
    }

    /// The QoR-only section of [`golden_text`](Self::golden_text): exactly
    /// the fields [`same_qor`](Self::same_qor) compares, serialized
    /// bit-exactly, and nothing else. Unlike the full golden text it
    /// excludes the telemetry section, so it is byte-identical between a
    /// cold run, a warm cached run, and a resumed run — two reports satisfy
    /// `same_qor` if and only if their `qor_text` matches.
    pub fn qor_text(&self) -> String {
        fn f(out: &mut String, name: &str, v: f64) {
            out.push_str(&format!("f {name} {:016x} # {v}\n", v.to_bits()));
        }
        let mut out = String::new();
        out.push_str("golden v1\n");
        out.push_str(&format!("flow {} design {} node {}\n", self.flow, self.design, self.node));
        f(&mut out, "cell_area_um2", self.cell_area_um2);
        out.push_str(&format!("i cells {}\n", self.cells));
        out.push_str(&format!("i flops {}\n", self.flops));
        f(&mut out, "wns_ps", self.wns_ps);
        f(&mut out, "critical_path_ps", self.critical_path_ps);
        f(&mut out, "hpwl_um", self.hpwl_um);
        out.push_str(&format!("i routed_wirelength {}\n", self.routed_wirelength));
        out.push_str(&format!("i vias {}\n", self.vias));
        out.push_str(&format!("i overflow {}\n", self.overflow));
        out.push_str(&format!("i masks {}\n", self.masks));
        out.push_str(&format!("i stitches {}\n", self.stitches));
        out.push_str(&format!("i litho_legal {}\n", self.litho_legal));
        f(&mut out, "opc_rms_epe_nm", self.opc_rms_epe_nm);
        f(&mut out, "dynamic_mw", self.dynamic_mw);
        f(&mut out, "leakage_mw", self.leakage_mw);
        f(&mut out, "test_coverage", self.test_coverage);
        f(&mut out, "scan_wirelength_um", self.scan_wirelength_um);
        out.push_str(&format!("i decaps {}\n", self.decaps));
        out.push_str(&format!("i hotspots {}\n", self.hotspots));
        f(&mut out, "clock_skew_ps", self.clock_skew_ps);
        f(&mut out, "clock_tree_um", self.clock_tree_um);
        f(&mut out, "ir_drop_mv", self.ir_drop_mv);
        out.push_str(&format!("i hold_violations {}\n", self.hold_violations));
        out.push_str(&format!("i synthesis_verified {:?}\n", self.synthesis_verified));
        for (stage, status) in &self.stage_status {
            out.push_str(&format!(
                "status {stage} attempts {} outcome {}\n",
                status.attempts, status.outcome
            ));
        }
        out
    }

    /// FNV-1a hash of [`qor_text`](Self::qor_text): a 64-bit digest of the
    /// bit-exact QoR. Two reports with equal fingerprints satisfy
    /// [`same_qor`](Self::same_qor) (modulo hash collision), which is what
    /// lets the flow daemon assert bit-identity over the wire without
    /// shipping the whole report.
    pub fn qor_fingerprint(&self) -> u64 {
        fnv1a(self.qor_text().bytes())
    }
}

impl std::fmt::Display for FlowReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "flow {} on {} @ {}", self.flow, self.design, self.node)?;
        writeln!(f, "  area:      {:.1} um^2 ({} cells + {} flops)", self.cell_area_um2, self.cells, self.flops)?;
        writeln!(f, "  timing:    cp {:.0} ps, wns {:.0} ps", self.critical_path_ps, self.wns_ps)?;
        writeln!(f, "  place:     hpwl {:.0} um", self.hpwl_um)?;
        writeln!(
            f,
            "  route:     wl {} vias {} overflow {}",
            self.routed_wirelength, self.vias, self.overflow
        )?;
        writeln!(
            f,
            "  litho:     {} masks, {} stitches, legal={}",
            self.masks, self.stitches, self.litho_legal
        )?;
        writeln!(f, "  power:     {:.3} mW dyn + {:.3} mW leak", self.dynamic_mw, self.leakage_mw)?;
        writeln!(
            f,
            "  dft:       coverage {:.1}%, scan wl {:.0} um",
            self.test_coverage * 100.0,
            self.scan_wirelength_um
        )?;
        writeln!(f, "  pgrid:     {} decaps, {} hotspots, {:.1} mV IR drop", self.decaps, self.hotspots, self.ir_drop_mv)?;
        writeln!(
            f,
            "  clock:     skew {:.1} ps over {:.0} um tree, {} hold violations",
            self.clock_skew_ps, self.clock_tree_um, self.hold_violations
        )?;
        let verified = match self.synthesis_verified {
            Some(true) => "formally equivalent",
            Some(false) => "COUNTEREXAMPLE FOUND",
            None => "not verified",
        };
        writeln!(f, "  verify:    {verified}")?;
        let exceptions: Vec<String> = self
            .stage_status
            .iter()
            .filter(|(_, s)| !matches!(s.outcome, StageOutcome::Completed))
            .map(|(stage, s)| format!("{stage} {}", s.outcome))
            .collect();
        if !exceptions.is_empty() {
            writeln!(f, "  stages:    {}", exceptions.join("; "))?;
        }
        write!(f, "  runtime:   {:.2} s, score {:.1}", self.total_seconds(), self.score())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::WallSpan;

    fn dummy() -> FlowReport {
        FlowReport {
            flow: "t".into(),
            design: "d".into(),
            node: "28nm".into(),
            cell_area_um2: 100.0,
            cells: 10,
            flops: 2,
            wns_ps: 0.0,
            critical_path_ps: 500.0,
            hpwl_um: 1000.0,
            routed_wirelength: 50,
            vias: 5,
            overflow: 0,
            masks: 1,
            stitches: 0,
            litho_legal: true,
            opc_rms_epe_nm: 0.0,
            dynamic_mw: 1.0,
            leakage_mw: 0.1,
            test_coverage: 0.95,
            scan_wirelength_um: 100.0,
            decaps: 0,
            hotspots: 0,
            clock_skew_ps: 5.0,
            clock_tree_um: 100.0,
            ir_drop_mv: 10.0,
            hold_violations: 0,
            synthesis_verified: Some(true),
            stage_status: BTreeMap::new(),
            stage_seconds: BTreeMap::new(),
            telemetry: TelemetrySnapshot::default(),
        }
    }

    #[test]
    fn score_punishes_overflow_and_wns() {
        let good = dummy();
        let mut congested = dummy();
        congested.overflow = 10;
        let mut slow = dummy();
        slow.wns_ps = -100.0;
        assert!(congested.score() > good.score());
        assert!(slow.score() > good.score());
    }

    #[test]
    fn golden_text_excludes_wall_clock_and_thread_fields() {
        let mut a = dummy();
        a.stage_seconds.insert("1_synthesis".into(), 1.0);
        let mut b = dummy();
        b.stage_seconds.insert("1_synthesis".into(), 9.0);
        b.telemetry.wall.push(WallSpan { threads: 8, speedup: 3.5, ..WallSpan::default() });
        assert_eq!(a.golden_text(), b.golden_text());
        assert!(a.golden_text().contains("f cell_area_um2"));
        assert!(a.golden_text().contains("telemetry v1"));
    }

    #[test]
    fn qor_fingerprint_tracks_same_qor() {
        let a = dummy();
        let mut b = dummy();
        b.stage_seconds.insert("1_synthesis".into(), 9.0);
        assert!(a.same_qor(&b));
        assert_eq!(a.qor_fingerprint(), b.qor_fingerprint());
        let mut c = dummy();
        c.overflow = 3;
        assert!(!a.same_qor(&c));
        assert_ne!(a.qor_fingerprint(), c.qor_fingerprint());
    }

    /// Every QoR field, flipped alone by the smallest step it has (one `f64`
    /// bit, one count, one status reason), is a difference to `same_qor` and
    /// to the fingerprint the daemon ships in its place.
    #[test]
    fn every_qor_field_alone_breaks_same_qor_and_the_fingerprint() {
        fn bit(v: &mut f64) {
            *v = f64::from_bits(v.to_bits() ^ 1);
        }
        fn degraded(reason: &str) -> StageStatus {
            StageStatus { outcome: StageOutcome::Degraded { reason: reason.into() }, attempts: 2 }
        }
        let mut base = dummy();
        base.stage_status.insert("7_route".into(), degraded("partial routes (3 overflow)"));
        type Flip = fn(&mut FlowReport);
        let flips: [(&str, Flip); 28] = [
            ("flow", |r| r.flow.push('x')),
            ("design", |r| r.design.push('x')),
            ("node", |r| r.node.push('x')),
            ("cell_area_um2", |r| bit(&mut r.cell_area_um2)),
            ("cells", |r| r.cells += 1),
            ("flops", |r| r.flops += 1),
            ("wns_ps", |r| bit(&mut r.wns_ps)),
            ("critical_path_ps", |r| bit(&mut r.critical_path_ps)),
            ("hpwl_um", |r| bit(&mut r.hpwl_um)),
            ("routed_wirelength", |r| r.routed_wirelength += 1),
            ("vias", |r| r.vias += 1),
            ("overflow", |r| r.overflow += 1),
            ("masks", |r| r.masks += 1),
            ("stitches", |r| r.stitches += 1),
            ("litho_legal", |r| r.litho_legal = !r.litho_legal),
            ("opc_rms_epe_nm", |r| bit(&mut r.opc_rms_epe_nm)),
            ("dynamic_mw", |r| bit(&mut r.dynamic_mw)),
            ("leakage_mw", |r| bit(&mut r.leakage_mw)),
            ("test_coverage", |r| bit(&mut r.test_coverage)),
            ("scan_wirelength_um", |r| bit(&mut r.scan_wirelength_um)),
            ("decaps", |r| r.decaps += 1),
            ("hotspots", |r| r.hotspots += 1),
            ("clock_skew_ps", |r| bit(&mut r.clock_skew_ps)),
            ("clock_tree_um", |r| bit(&mut r.clock_tree_um)),
            ("ir_drop_mv", |r| bit(&mut r.ir_drop_mv)),
            ("hold_violations", |r| r.hold_violations += 1),
            ("synthesis_verified", |r| r.synthesis_verified = None),
            ("stage_status", |r| {
                r.stage_status.insert("7_route".into(), degraded("partial routes (4 overflow)"));
            }),
        ];
        for (field, flip) in flips {
            let mut other = base.clone();
            flip(&mut other);
            assert!(!base.same_qor(&other), "same_qor missed a flipped `{field}`");
            assert_ne!(base.qor_fingerprint(), other.qor_fingerprint(), "fingerprint missed `{field}`");
        }
    }

    #[test]
    fn display_mentions_key_metrics() {
        let r = dummy();
        let s = r.to_string();
        assert!(s.contains("area"));
        assert!(s.contains("coverage"));
        assert!(s.contains("28nm"));
    }
}
