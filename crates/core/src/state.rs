//! The flow state and its body codec: exact serialization of everything the
//! flow has computed (and the statuses of the stages that produced it) after
//! a stage, as the stage cache stores it ([`crate::cache`]) and as the next
//! stage's cache key hashes it. A flow that is killed and rerun against the
//! same store replays these bytes stage by stage, so it resumes from the
//! last good stage with bit-identical QoR.
//!
//! The format is line-oriented text. Everything that influences QoR
//! round-trips exactly: `f64` values are written as `to_bits()` hex (never
//! decimal), the netlist goes through [`eda_netlist::codec`], and the
//! placement is stored as raw geometry ([`eda_place::PlacementSnapshot`])
//! rather than being re-derived from the netlist — whose instance count may
//! legitimately differ from placement time once decaps are inserted.
//!
//! Nothing here touches the file system: where the bytes live, how they are
//! addressed and what happens when they are damaged is the store's business.

use crate::harness::{StageOutcome, StageStatus};
use eda_netlist::codec::{escape, unescape, Lines};
use eda_netlist::{codec, CodecError, InstId, Netlist};
use eda_place::{Placement, PlacementSnapshot, Point};
use std::collections::BTreeMap;

/// Everything the flow has computed so far. `cursor` counts completed stage
/// positions (0..=11); each stage reads its inputs from here and writes its
/// outputs back, so the struct doubles as the replay image. It holds state
/// only: what one run observed about itself (seconds, workers, speedups)
/// belongs to that run's driver and report, never to the persisted image.
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
}

impl FlowState {
    pub fn fresh() -> FlowState {
        FlowState { litho_legal: true, ..FlowState::default() }
    }
}

fn fmt_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Revision of the body format [`write_body`] emits. Folded into every
/// stage-cache address ([`crate::cache::entry_key`]), so a store written
/// under an older revision is never addressed — its entries read as misses
/// and age out — instead of failing to parse. Revision 2 dropped the
/// wall-clock maps.
pub(crate) const BODY_REV: u32 = 2;

/// Serializes the flow state and the statuses of the stages that produced it
/// in the line-oriented body format: what a stage-cache entry stores after
/// its head lines (`crate::cache`), and the same bytes the next stage's
/// cache key hashes.
pub(crate) fn write_body(st: &FlowState, statuses: &BTreeMap<String, StageStatus>, out: &mut String) {
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
    out.push_str(&format!("status {}\n", statuses.len()));
    for (stage, s) in statuses {
        let tail = match &s.outcome {
            StageOutcome::Completed => "C".to_string(),
            StageOutcome::Recovered { attempts } => format!("R {attempts}"),
            StageOutcome::Degraded { reason } => format!("D {}", escape(reason)),
            StageOutcome::Skipped { cause } => format!("S {}", escape(cause)),
        };
        out.push_str(&format!("s {} {} {tail}\n", escape(stage), s.attempts));
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

fn parse_f64(lines: &Lines<'_>, tok: &str) -> Result<f64, CodecError> {
    u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .map_err(|_| lines.err(format!("bad f64 bits {tok:?}")))
}

/// A body read back from a stage-cache entry: the state, the statuses of the
/// stages that produced it, and the bytes both were parsed from. Those bytes
/// are the next stage's cache-key input, so a replayed stage serializes
/// nothing.
pub(crate) struct Loaded {
    pub state: FlowState,
    pub statuses: BTreeMap<String, StageStatus>,
    pub body: String,
}

/// Parses a body (everything after an entry's head lines) — the inverse of
/// [`write_body`]. The error is the parse problem and the line it is on.
pub(crate) fn read_body(body: &str) -> Result<Loaded, CodecError> {
    let lines = &mut Lines::new(body);
    let mut st = FlowState::fresh();
    let mut statuses = BTreeMap::new();
    st.cursor = lines.count("cursor")?;
    let v_line = lines.next_line()?;
    st.synthesis_verified = match v_line.strip_prefix("verified ") {
        Some("-") => None,
        Some("0") => Some(false),
        Some("1") => Some(true),
        _ => return Err(lines.err(format!("bad verified line {v_line:?}"))),
    };

    let u: Vec<&str> = lines.tagged("u")?.collect();
    if u.len() != 11 {
        return Err(lines.err("wrong integer field count"));
    }
    st.cells = lines.parse(u[0], "cells")?;
    st.flops = lines.parse(u[1], "flops")?;
    st.hold_violations = lines.parse(u[2], "hold")?;
    st.routed_wirelength = lines.parse(u[3], "wirelength")?;
    st.routed_vias = lines.parse(u[4], "vias")?;
    st.routed_overflow = lines.parse(u[5], "overflow")?;
    st.masks = lines.parse(u[6], "masks")?;
    st.stitches = lines.parse(u[7], "stitches")?;
    st.decaps = lines.parse(u[8], "decaps")?;
    st.hotspots = lines.parse(u[9], "hotspots")?;
    st.litho_legal = u[10] == "1";

    let fl: Vec<&str> = lines.tagged("f")?.collect();
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

    let n_chains = lines.count("chains")?;
    for _ in 0..n_chains {
        let c: Vec<&str> = lines.tagged("c")?.collect();
        let len: usize = lines.parse(c.first().copied().unwrap_or(""), "chain length")?;
        if c.len() != len + 1 {
            return Err(lines.err("chain length mismatch"));
        }
        let mut chain = Vec::with_capacity(len);
        for t in &c[1..] {
            let i: usize = lines.parse(t, "chain element")?;
            chain.push(InstId::from_index(i));
        }
        st.chains.push(chain);
    }

    let n_status = lines.count("status")?;
    for _ in 0..n_status {
        let s: Vec<&str> = lines.tagged("s")?.collect();
        if s.len() < 3 {
            return Err(lines.err("bad status line"));
        }
        let stage = unescape(s[0]).map_err(|e| lines.err(e))?;
        let attempts: usize = lines.parse(s[1], "attempts")?;
        let outcome = match (s[2], s.get(3)) {
            ("C", None) => StageOutcome::Completed,
            ("R", Some(n)) => StageOutcome::Recovered { attempts: lines.parse(n, "recovered attempts")? },
            ("D", Some(r)) => StageOutcome::Degraded { reason: unescape(r).map_err(|e| lines.err(e))? },
            ("S", Some(c)) => StageOutcome::Skipped { cause: unescape(c).map_err(|e| lines.err(e))? },
            _ => return Err(lines.err("bad status line")),
        };
        statuses.insert(stage, StageStatus { outcome, attempts });
    }

    let has_placement = lines.count("placement")?;
    if has_placement == 1 {
        let d: Vec<&str> = lines.tagged("die")?.collect();
        if d.len() != 5 {
            return Err(lines.err("bad die line"));
        }
        let die = eda_place::Die {
            width_um: parse_f64(lines, d[0])?,
            height_um: parse_f64(lines, d[1])?,
            site_um: parse_f64(lines, d[2])?,
            cols: lines.parse(d[3], "cols")?,
            rows: lines.parse(d[4], "rows")?,
        };
        let mut vecs: [Vec<Point>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (tag, slot) in ["pos", "pip", "pop"].into_iter().zip(vecs.iter_mut()) {
            let p: Vec<&str> = lines.tagged(tag)?.collect();
            let len: usize = lines.parse(p.first().copied().unwrap_or(""), "point count")?;
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

    // The netlist section is parsed in place and must end exactly where its
    // count says.
    let n_netlist_lines = lines.count("netlist")?;
    if n_netlist_lines > 0 {
        let first = lines.line_number();
        st.netlist = Some(codec::from_lines(lines)?);
        let read = lines.line_number() - first;
        if read != n_netlist_lines {
            return Err(lines.err(format!("netlist section is {read} lines, not {n_netlist_lines}")));
        }
    }

    let body = body[..body.len() - lines.rest().len()].to_owned();
    Ok(Loaded { state: st, statuses, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_netlist::generate;

    #[test]
    fn state_roundtrip_is_exact() {
        let design = generate::switch_fabric(3, 2).unwrap();

        let mut st = FlowState::fresh();
        st.cursor = 7;
        st.netlist = Some(design.clone());
        let die = eda_place::Die::for_netlist(&design, 0.7);
        st.placement = Some(Placement::new(&design, die));
        st.chains = vec![vec![InstId::from_index(0), InstId::from_index(3)]];
        st.synthesis_verified = Some(true);
        st.wns_ps = -12.345678901;
        st.test_coverage = 0.87654321;
        let mut statuses = BTreeMap::new();
        statuses.insert(
            "7_route".to_string(),
            StageStatus { outcome: StageOutcome::Degraded { reason: "partial routes %& spaces".into() }, attempts: 2 },
        );

        let mut body = String::new();
        write_body(&st, &statuses, &mut body);
        let Loaded { state: back, statuses: back_statuses, body: back_body } =
            read_body(&body).unwrap();

        assert_eq!(back.cursor, st.cursor);
        assert_eq!(back.synthesis_verified, st.synthesis_verified);
        assert_eq!(back.wns_ps.to_bits(), st.wns_ps.to_bits());
        assert_eq!(back.test_coverage.to_bits(), st.test_coverage.to_bits());
        assert_eq!(back.chains, st.chains);
        assert_eq!(back_statuses, statuses);
        assert_eq!(back.placement, st.placement);
        // The loaded bytes are the written bytes: what the next stage's key
        // hashes on a replaying run is what it hashed on the run that stored.
        assert_eq!(back_body, body);
        // ...and the parsed state, netlist included, re-serializes to them.
        let mut again = String::new();
        write_body(&back, &back_statuses, &mut again);
        assert_eq!(again, body);

        // A cut body is a message, never a panic or a partial state.
        assert!(read_body(&body[..body.len() / 2]).is_err());
        // The netlist must end exactly where its line count says.
        let text = codec::to_text(&design);
        let n = text.lines().count();
        for wrong in [n - 1, n + 1] {
            let skewed = body.replace(&format!("\nnetlist {n}\n"), &format!("\nnetlist {wrong}\n"));
            assert!(read_body(&skewed).is_err(), "a netlist counted as {wrong} of {n} lines parsed");
            assert!(read_body(&format!("{skewed}o extra 0\n")).is_err());
        }
    }
}
