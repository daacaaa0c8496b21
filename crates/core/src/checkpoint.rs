//! Flow checkpointing: exact serialization of the supervisor's state after
//! every completed stage, so a killed or failed flow resumes from the last
//! good stage with bit-identical QoR.
//!
//! The on-disk format is line-oriented text. Everything that influences QoR
//! round-trips exactly: `f64` values are written as `to_bits()` hex (never
//! decimal), the netlist goes through [`eda_netlist::codec`], and the
//! placement is stored as raw geometry ([`eda_place::PlacementSnapshot`])
//! rather than being re-derived from the netlist — whose instance count may
//! legitimately differ from placement time once decaps are inserted.
//!
//! A checkpoint embeds a fingerprint of every QoR-relevant config field plus
//! the design identity. Resuming under a different config (different seed,
//! node, effort...) would silently splice two different flows together, so a
//! fingerprint mismatch is a hard [`LoadError::Mismatch`].

use crate::config::FlowConfig;
use crate::harness::{StageOutcome, StageStatus};
use eda_netlist::codec::{escape, unescape};
use eda_netlist::memo::fnv1a;
use eda_netlist::{codec, InstId, Netlist};
use eda_place::{Placement, PlacementSnapshot, Point};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Everything the flow has computed so far. `cursor` counts completed stage
/// positions (0..=11); each stage reads its inputs from here and writes its
/// outputs back, so the struct doubles as the resume image.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlowState {
    pub cursor: usize,
    pub netlist: Option<Netlist>,
    pub placement: Option<Placement>,
    pub chains: Vec<Vec<InstId>>,
    pub synthesis_verified: Option<bool>,
    pub cells: usize,
    pub flops: usize,
    pub hold_violations: usize,
    pub routed_wirelength: u64,
    pub routed_vias: u64,
    pub routed_overflow: u64,
    pub masks: u32,
    pub stitches: usize,
    pub litho_legal: bool,
    pub decaps: usize,
    pub hotspots: usize,
    pub scan_wirelength_um: f64,
    pub clock_skew_ps: f64,
    pub clock_tree_um: f64,
    pub wns_ps: f64,
    pub critical_path_ps: f64,
    pub opc_rms_epe_nm: f64,
    pub dynamic_mw: f64,
    pub leakage_mw: f64,
    pub ir_drop_mv: f64,
    pub test_coverage: f64,
    pub statuses: BTreeMap<String, StageStatus>,
    pub stage_seconds: BTreeMap<String, f64>,
    pub stage_threads: BTreeMap<String, usize>,
    pub stage_speedup: BTreeMap<String, f64>,
}

impl FlowState {
    pub fn fresh() -> FlowState {
        FlowState { litho_legal: true, ..FlowState::default() }
    }
}

/// Why a checkpoint could not be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum LoadError {
    /// The checkpoint was written under a different config or design.
    Mismatch(String),
    /// The file exists but does not parse.
    Corrupt(String),
}

/// FNV-1a-style fingerprint of every QoR-relevant config field plus the
/// design identity. Excludes fields that cannot change the result:
/// `name`, `threads` (bit-identical by the eda-par contract),
/// `checkpoint_dir`, `resume`, `store`, `fault_plan`,
/// `budgets`, and `deadline_s`.
pub(crate) fn fingerprint(design: &Netlist, cfg: &FlowConfig) -> u64 {
    let decap_bits = cfg
        .power
        .decap_droop_limit_mv
        .map(f64::to_bits)
        .unwrap_or(u64::MAX);
    let key = format!(
        "{}|{}|{:?}|{:?}|{:?}|{:?}|{}|{:016x}|{:?}|{:?}|{}|{}|{}|{}|{}|{:?}|{}|{:016x}|{:016x}|{}|{}",
        design.name(),
        design.num_instances(),
        cfg.node,
        cfg.library,
        cfg.synthesis,
        cfg.map_goal,
        cfg.aig_rewrite_passes,
        cfg.utilization.to_bits(),
        cfg.place,
        cfg.router,
        cfg.layers,
        cfg.ripup_iterations,
        cfg.route_grid_cells,
        cfg.route_window_margin,
        cfg.route_region_size,
        cfg.scan,
        cfg.power.clock_gating_group,
        decap_bits,
        cfg.clock_mhz.to_bits(),
        cfg.verify_synthesis,
        cfg.seed,
    );
    fnv1a(key.bytes())
}

/// The checkpoint file for one (design, config) pair. The config fingerprint
/// is part of the file name, not just the header: concurrent requests that
/// share a `checkpoint_dir` and a design name but differ in config (seed,
/// node, effort...) must not clobber each other's files — with a shared path
/// the last writer would win and a later `resume: true` under either config
/// would hit a hard fingerprint mismatch instead of its own checkpoint.
pub(crate) fn path_for(dir: &Path, design: &str, fp: u64) -> PathBuf {
    let safe: String = design
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    dir.join(format!("{safe}-{fp:016x}.flowck"))
}

fn fmt_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Serializes the full flow state (everything after the header lines) in the
/// line-oriented checkpoint body format. Shared verbatim by the checkpoint
/// file and the stage-cache entries (`crate::cache`), so a cache hit replays
/// exactly the state a resume would.
///
/// `wall` selects whether the wall-clock-derived maps (`stage_seconds`,
/// `stage_speedup`, `stage_threads`) are included. Files on disk always
/// include them; the cache-key state hash passes `wall: false` so a stage's
/// key never depends on how long an earlier stage took to compute (or on how
/// many workers computed it).
pub(crate) fn write_body(st: &FlowState, out: &mut String, wall: bool) {
    out.push_str(&format!("cursor {}\n", st.cursor));
    let v = match st.synthesis_verified {
        None => "-",
        Some(false) => "0",
        Some(true) => "1",
    };
    out.push_str(&format!("verified {v}\n"));
    out.push_str(&format!(
        "u {} {} {} {} {} {} {} {} {} {} {}\n",
        st.cells,
        st.flops,
        st.hold_violations,
        st.routed_wirelength,
        st.routed_vias,
        st.routed_overflow,
        st.masks,
        st.stitches,
        st.decaps,
        st.hotspots,
        u8::from(st.litho_legal),
    ));
    out.push_str(&format!(
        "f {} {} {} {} {} {} {} {} {} {}\n",
        fmt_f64(st.scan_wirelength_um),
        fmt_f64(st.clock_skew_ps),
        fmt_f64(st.clock_tree_um),
        fmt_f64(st.wns_ps),
        fmt_f64(st.critical_path_ps),
        fmt_f64(st.opc_rms_epe_nm),
        fmt_f64(st.dynamic_mw),
        fmt_f64(st.leakage_mw),
        fmt_f64(st.ir_drop_mv),
        fmt_f64(st.test_coverage),
    ));
    out.push_str(&format!("chains {}\n", st.chains.len()));
    for chain in &st.chains {
        out.push_str(&format!("c {}", chain.len()));
        for inst in chain {
            out.push_str(&format!(" {}", inst.index()));
        }
        out.push('\n');
    }
    out.push_str(&format!("status {}\n", st.statuses.len()));
    for (stage, s) in &st.statuses {
        let tail = match &s.outcome {
            StageOutcome::Completed => "C".to_string(),
            StageOutcome::Recovered { attempts } => format!("R {attempts}"),
            StageOutcome::Degraded { reason } => format!("D {}", escape(reason)),
            StageOutcome::Skipped { cause } => format!("S {}", escape(cause)),
        };
        out.push_str(&format!("s {} {} {tail}\n", escape(stage), s.attempts));
    }
    if wall {
        for (tag, map) in [("sec", &st.stage_seconds), ("spd", &st.stage_speedup)] {
            out.push_str(&format!("{tag} {}\n", map.len()));
            for (stage, v) in map {
                out.push_str(&format!("m {} {}\n", escape(stage), fmt_f64(*v)));
            }
        }
        out.push_str(&format!("thr {}\n", st.stage_threads.len()));
        for (stage, v) in &st.stage_threads {
            out.push_str(&format!("m {} {v}\n", escape(stage)));
        }
    }
    match &st.placement {
        None => out.push_str("placement 0\n"),
        Some(p) => {
            let snap = p.snapshot();
            out.push_str("placement 1\n");
            out.push_str(&format!(
                "die {} {} {} {} {}\n",
                fmt_f64(snap.die.width_um),
                fmt_f64(snap.die.height_um),
                fmt_f64(snap.die.site_um),
                snap.die.cols,
                snap.die.rows,
            ));
            for (tag, pts) in [("pos", &snap.positions), ("pip", &snap.pi_pins), ("pop", &snap.po_pins)] {
                out.push_str(&format!("{tag} {}", pts.len()));
                for pt in pts {
                    out.push_str(&format!(" {} {}", fmt_f64(pt.x), fmt_f64(pt.y)));
                }
                out.push('\n');
            }
        }
    }
    match &st.netlist {
        None => out.push_str("netlist 0\n"),
        Some(n) => {
            let text = codec::to_text(n);
            out.push_str(&format!("netlist {}\n", text.lines().count()));
            out.push_str(&text);
        }
    }
}

/// Atomically writes the checkpoint (temp file + rename).
pub(crate) fn save(dir: &Path, design: &str, fp: u64, st: &FlowState) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut out = String::new();
    out.push_str("eda-flowck v1\n");
    out.push_str(&format!("fingerprint {fp:016x}\n"));
    write_body(st, &mut out, true);

    let path = path_for(dir, design, fp);
    write_atomic(&path, &out)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Writes `text` to `path` via a process-unique temp file plus rename, so
/// concurrent writers (e.g. `experiments` child processes sharing a cache
/// directory) never observe a half-written file.
pub(crate) fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

pub(crate) struct Lines<'a> {
    iter: std::str::Lines<'a>,
    num: usize,
}

impl<'a> Lines<'a> {
    pub(crate) fn new(text: &'a str) -> Lines<'a> {
        Lines { iter: text.lines(), num: 0 }
    }

    pub(crate) fn next(&mut self) -> Result<&'a str, LoadError> {
        self.num += 1;
        self.iter
            .next()
            .ok_or_else(|| LoadError::Corrupt(format!("line {}: unexpected end of checkpoint", self.num)))
    }

    pub(crate) fn err(&self, reason: impl std::fmt::Display) -> LoadError {
        LoadError::Corrupt(format!("line {}: {reason}", self.num))
    }
}

fn parse_f64(lines: &Lines<'_>, tok: &str) -> Result<f64, LoadError> {
    u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .map_err(|_| lines.err(format!("bad f64 bits {tok:?}")))
}

fn parse_num<T: std::str::FromStr>(lines: &Lines<'_>, tok: &str, what: &str) -> Result<T, LoadError> {
    tok.parse().map_err(|_| lines.err(format!("bad {what}: {tok:?}")))
}

fn tagged_count(lines: &mut Lines<'_>, tag: &str) -> Result<usize, LoadError> {
    let line = lines.next()?;
    let rest = line
        .strip_prefix(tag)
        .and_then(|r| r.strip_prefix(' '))
        .ok_or_else(|| lines.err(format!("expected `{tag} <count>`, got {line:?}")))?;
    parse_num(lines, rest, "count")
}

fn toks<'a>(lines: &Lines<'_>, line: &'a str, tag: &str) -> Result<Vec<&'a str>, LoadError> {
    let mut parts: Vec<&str> = line.split(' ').collect();
    if parts.first() != Some(&tag) {
        return Err(lines.err(format!("expected `{tag} ...`, got {line:?}")));
    }
    parts.remove(0);
    Ok(parts)
}

/// Loads the checkpoint for `design`, if one exists.
///
/// `Ok(None)` = no checkpoint file (start fresh). `Err(Mismatch)` = the file
/// was written under a different config/design. `Err(Corrupt)` = unreadable.
pub(crate) fn load(dir: &Path, design: &str, fp: u64) -> Result<Option<FlowState>, LoadError> {
    let path = path_for(dir, design, fp);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(LoadError::Corrupt(format!("read {}: {e}", path.display()))),
    };
    let mut lines = Lines { iter: text.lines(), num: 0 };
    let header = lines.next()?;
    if header != "eda-flowck v1" {
        return Err(lines.err(format!("bad header {header:?}")));
    }
    let fp_line = lines.next()?;
    let stored = fp_line
        .strip_prefix("fingerprint ")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| lines.err(format!("bad fingerprint line {fp_line:?}")))?;
    if stored != fp {
        return Err(LoadError::Mismatch(format!(
            "checkpoint {} was written under a different design/config (fingerprint {stored:016x}, current {fp:016x})",
            path.display()
        )));
    }
    let st = read_body(&mut lines)?;
    Ok(Some(st))
}

/// Parses a checkpoint body (everything after the header lines) — the
/// inverse of [`write_body`] at `wall: true`.
pub(crate) fn read_body(lines: &mut Lines<'_>) -> Result<FlowState, LoadError> {
    let mut st = FlowState::fresh();
    st.cursor = tagged_count(lines, "cursor")?;
    let v_line = lines.next()?;
    st.synthesis_verified = match v_line.strip_prefix("verified ") {
        Some("-") => None,
        Some("0") => Some(false),
        Some("1") => Some(true),
        _ => return Err(lines.err(format!("bad verified line {v_line:?}"))),
    };

    let u_line = lines.next()?;
    let u = toks(lines, u_line, "u")?;
    if u.len() != 11 {
        return Err(lines.err("wrong integer field count"));
    }
    st.cells = parse_num(lines, u[0], "cells")?;
    st.flops = parse_num(lines, u[1], "flops")?;
    st.hold_violations = parse_num(lines, u[2], "hold")?;
    st.routed_wirelength = parse_num(lines, u[3], "wirelength")?;
    st.routed_vias = parse_num(lines, u[4], "vias")?;
    st.routed_overflow = parse_num(lines, u[5], "overflow")?;
    st.masks = parse_num(lines, u[6], "masks")?;
    st.stitches = parse_num(lines, u[7], "stitches")?;
    st.decaps = parse_num(lines, u[8], "decaps")?;
    st.hotspots = parse_num(lines, u[9], "hotspots")?;
    st.litho_legal = u[10] == "1";

    let f_line = lines.next()?;
    let fl = toks(lines, f_line, "f")?;
    if fl.len() != 10 {
        return Err(lines.err("wrong float field count"));
    }
    st.scan_wirelength_um = parse_f64(lines, fl[0])?;
    st.clock_skew_ps = parse_f64(lines, fl[1])?;
    st.clock_tree_um = parse_f64(lines, fl[2])?;
    st.wns_ps = parse_f64(lines, fl[3])?;
    st.critical_path_ps = parse_f64(lines, fl[4])?;
    st.opc_rms_epe_nm = parse_f64(lines, fl[5])?;
    st.dynamic_mw = parse_f64(lines, fl[6])?;
    st.leakage_mw = parse_f64(lines, fl[7])?;
    st.ir_drop_mv = parse_f64(lines, fl[8])?;
    st.test_coverage = parse_f64(lines, fl[9])?;

    let n_chains = tagged_count(lines, "chains")?;
    for _ in 0..n_chains {
        let line = lines.next()?;
        let c = toks(lines, line, "c")?;
        let len: usize = parse_num(lines, c.first().copied().unwrap_or(""), "chain length")?;
        if c.len() != len + 1 {
            return Err(lines.err("chain length mismatch"));
        }
        let mut chain = Vec::with_capacity(len);
        for t in &c[1..] {
            let i: usize = parse_num(lines, t, "chain element")?;
            chain.push(InstId::from_index(i));
        }
        st.chains.push(chain);
    }

    let n_status = tagged_count(lines, "status")?;
    for _ in 0..n_status {
        let line = lines.next()?;
        let s = toks(lines, line, "s")?;
        if s.len() < 3 {
            return Err(lines.err(format!("bad status line {line:?}")));
        }
        let stage = unescape(s[0]).map_err(|e| lines.err(e))?;
        let attempts: usize = parse_num(lines, s[1], "attempts")?;
        let outcome = match (s[2], s.get(3)) {
            ("C", None) => StageOutcome::Completed,
            ("R", Some(n)) => StageOutcome::Recovered { attempts: parse_num(lines, n, "recovered attempts")? },
            ("D", Some(r)) => StageOutcome::Degraded { reason: unescape(r).map_err(|e| lines.err(e))? },
            ("S", Some(c)) => StageOutcome::Skipped { cause: unescape(c).map_err(|e| lines.err(e))? },
            _ => return Err(lines.err(format!("bad status line {line:?}"))),
        };
        st.statuses.insert(stage, StageStatus { outcome, attempts });
    }

    for (tag, map) in [("sec", &mut st.stage_seconds), ("spd", &mut st.stage_speedup)] {
        let n = tagged_count(lines, tag)?;
        for _ in 0..n {
            let line = lines.next()?;
            let m = toks(lines, line, "m")?;
            if m.len() != 2 {
                return Err(lines.err(format!("bad map line {line:?}")));
            }
            let stage = unescape(m[0]).map_err(|e| lines.err(e))?;
            map.insert(stage, parse_f64(lines, m[1])?);
        }
    }
    let n_thr = tagged_count(lines, "thr")?;
    for _ in 0..n_thr {
        let line = lines.next()?;
        let m = toks(lines, line, "m")?;
        if m.len() != 2 {
            return Err(lines.err(format!("bad map line {line:?}")));
        }
        let stage = unescape(m[0]).map_err(|e| lines.err(e))?;
        st.stage_threads.insert(stage, parse_num(lines, m[1], "threads")?);
    }

    let has_placement = tagged_count(lines, "placement")?;
    if has_placement == 1 {
        let die_line = lines.next()?;
        let d = toks(lines, die_line, "die")?;
        if d.len() != 5 {
            return Err(lines.err(format!("bad die line {die_line:?}")));
        }
        let die = eda_place::Die {
            width_um: parse_f64(lines, d[0])?,
            height_um: parse_f64(lines, d[1])?,
            site_um: parse_f64(lines, d[2])?,
            cols: parse_num(lines, d[3], "cols")?,
            rows: parse_num(lines, d[4], "rows")?,
        };
        let mut vecs: [Vec<Point>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (tag, slot) in ["pos", "pip", "pop"].into_iter().zip(vecs.iter_mut()) {
            let line = lines.next()?;
            let p = toks(lines, line, tag)?;
            let len: usize = parse_num(lines, p.first().copied().unwrap_or(""), "point count")?;
            if p.len() != 1 + 2 * len {
                return Err(lines.err(format!("point count mismatch in `{tag}`")));
            }
            for pair in p[1..].chunks(2) {
                slot.push(Point::new(parse_f64(lines, pair[0])?, parse_f64(lines, pair[1])?));
            }
        }
        let [positions, pi_pins, po_pins] = vecs;
        st.placement = Some(Placement::from_snapshot(PlacementSnapshot { die, positions, pi_pins, po_pins }));
    }

    let n_netlist_lines = tagged_count(lines, "netlist")?;
    if n_netlist_lines > 0 {
        let mut text = String::new();
        for _ in 0..n_netlist_lines {
            text.push_str(lines.next()?);
            text.push('\n');
        }
        let netlist = codec::from_text(&text).map_err(|e| LoadError::Corrupt(e.to_string()))?;
        st.netlist = Some(netlist);
    }

    Ok(st)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_netlist::generate;
    use eda_tech::Node;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eda_ck_test_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn state_roundtrip_is_exact() {
        let design = generate::switch_fabric(3, 2).unwrap();
        let cfg = FlowConfig::advanced_2016(Node::N28);
        let fp = fingerprint(&design, &cfg);

        let mut st = FlowState::fresh();
        st.cursor = 7;
        st.netlist = Some(design.clone());
        let die = eda_place::Die::for_netlist(&design, 0.7);
        st.placement = Some(Placement::new(&design, die));
        st.chains = vec![vec![InstId::from_index(0), InstId::from_index(3)]];
        st.synthesis_verified = Some(true);
        st.wns_ps = -12.345678901;
        st.test_coverage = 0.87654321;
        st.statuses.insert(
            "7_route".into(),
            StageStatus { outcome: StageOutcome::Degraded { reason: "partial routes %& spaces".into() }, attempts: 2 },
        );
        st.stage_seconds.insert("1_synthesis".into(), 0.123456789);
        st.stage_threads.insert("7_route".into(), 4);
        st.stage_speedup.insert("7_route".into(), 2.5);

        let dir = tmp_dir("roundtrip");
        save(&dir, design.name(), fp, &st).unwrap();
        let back = load(&dir, design.name(), fp).unwrap().unwrap();

        assert_eq!(back.cursor, st.cursor);
        assert_eq!(back.synthesis_verified, st.synthesis_verified);
        assert_eq!(back.wns_ps.to_bits(), st.wns_ps.to_bits());
        assert_eq!(back.test_coverage.to_bits(), st.test_coverage.to_bits());
        assert_eq!(back.chains, st.chains);
        assert_eq!(back.statuses, st.statuses);
        assert_eq!(back.stage_seconds, st.stage_seconds);
        assert_eq!(back.stage_threads, st.stage_threads);
        assert_eq!(back.stage_speedup, st.stage_speedup);
        assert_eq!(back.placement, st.placement);
        let (a, b) = (back.netlist.unwrap(), st.netlist.unwrap());
        assert_eq!(codec::to_text(&a), codec::to_text(&b));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_rejects_config_drift() {
        let design = generate::ripple_carry_adder(4).unwrap();
        let cfg = FlowConfig::advanced_2016(Node::N28);
        let fp = fingerprint(&design, &cfg);
        let dir = tmp_dir("mismatch");
        save(&dir, design.name(), fp, &FlowState::fresh()).unwrap();

        // A different config resolves to a different file: no clobber, and
        // loading under the other fingerprint is a clean fresh start.
        let mut other = cfg.clone();
        other.seed = 99;
        let fp2 = fingerprint(&design, &other);
        assert_ne!(fp, fp2);
        assert_ne!(path_for(&dir, design.name(), fp), path_for(&dir, design.name(), fp2));
        assert!(load(&dir, design.name(), fp2).unwrap().is_none());

        // A file whose embedded fingerprint disagrees with the path (copied
        // or renamed by hand) is still a hard mismatch, never spliced in.
        std::fs::copy(path_for(&dir, design.name(), fp), path_for(&dir, design.name(), fp2)).unwrap();
        assert!(matches!(load(&dir, design.name(), fp2), Err(LoadError::Mismatch(_))));

        // Fields that cannot change QoR do not change the fingerprint.
        let mut same = cfg.clone();
        same.threads = 7;
        same.resume = true;
        same.name = "renamed".into();
        assert_eq!(fingerprint(&design, &same), fp);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_checkpoint_is_a_fresh_start() {
        let design = generate::ripple_carry_adder(4).unwrap();
        let cfg = FlowConfig::basic_2006(Node::N90);
        let dir = tmp_dir("missing");
        assert!(load(&dir, design.name(), fingerprint(&design, &cfg))
            .unwrap()
            .is_none());
    }
}
