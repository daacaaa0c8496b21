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
//! placement is stored as raw geometry ([`eda_place::Placement::from_parts`])
//! rather than being re-derived from the netlist — whose instance count may
//! legitimately differ from placement time once decaps are inserted.
//!
//! Both directions are on the store path of every stage, so both are lean.
//! [`write_body`] streams into one reused `String` — the netlist included,
//! and borrowing the placement — and allocates nothing per point, sink or
//! name. Reading is split: [`read_head`] is what a cache hit checks (the
//! cursor and the statuses), and [`read_body`], the full parse, runs once per
//! chain of hits, when the flow loop next needs the state.
//!
//! Nothing here touches the file system: where the bytes live, how they are
//! addressed and what happens when they are damaged is the store's business.

use crate::harness::{StageOutcome, StageStatus};
use eda_netlist::codec::{unescape, write_name, Lines};
use eda_netlist::{codec, CodecError, InstId, Netlist};
use eda_place::{Placement, Point};
use std::collections::BTreeMap;
use std::fmt::{self, Write};

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

/// Revision of the body format [`write_body`] emits. Folded into every
/// stage-cache address ([`crate::cache::entry_key`]), so a store written
/// under an older revision is never addressed — its entries read as misses
/// and age out — instead of failing to parse. Bump it when the emitted bytes
/// change; a writer that emits the same bytes faster keeps it. Revision 2
/// dropped the wall-clock maps.
pub(crate) const BODY_REV: u32 = 2;

/// Serializes the flow state and the statuses of the stages that produced it
/// in the line-oriented body format: what a stage-cache entry stores after
/// its head lines (`crate::cache`), and the same bytes the next stage's
/// cache key hashes. Everything is written straight into `out`, the netlist
/// too, so a stage's serialization allocates nothing past `out`'s growth.
pub(crate) fn write_body(st: &FlowState, statuses: &BTreeMap<String, StageStatus>, out: &mut String) {
    emit_body(st, statuses, out).expect("writing to a String never fails");
}

fn emit_body(st: &FlowState, statuses: &BTreeMap<String, StageStatus>, out: &mut String) -> fmt::Result {
    let v = match st.synthesis_verified {
        None => "-",
        Some(false) => "0",
        Some(true) => "1",
    };
    writeln!(
        out,
        "cursor {}\nverified {v}\nu {} {} {} {} {} {} {} {} {} {} {}",
        st.cursor,
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
    )?;
    out.push('f');
    for v in [
        st.scan_wirelength_um,
        st.clock_skew_ps,
        st.clock_tree_um,
        st.wns_ps,
        st.critical_path_ps,
        st.opc_rms_epe_nm,
        st.dynamic_mw,
        st.leakage_mw,
        st.ir_drop_mv,
        st.test_coverage,
    ] {
        write_f64(out, v);
    }
    writeln!(out, "\nchains {}", st.chains.len())?;
    for chain in &st.chains {
        write!(out, "c {}", chain.len())?;
        for inst in chain {
            write!(out, " {}", inst.index())?;
        }
        out.push('\n');
    }
    writeln!(out, "status {}", statuses.len())?;
    for (stage, s) in statuses {
        out.push_str("s ");
        write_name(out, stage)?;
        write!(out, " {} ", s.attempts)?;
        match &s.outcome {
            StageOutcome::Completed => out.push('C'),
            StageOutcome::Recovered { attempts } => write!(out, "R {attempts}")?,
            StageOutcome::Degraded { reason } => {
                out.push_str("D ");
                write_name(out, reason)?;
            }
            StageOutcome::Skipped { cause } => {
                out.push_str("S ");
                write_name(out, cause)?;
            }
        }
        out.push('\n');
    }
    match &st.placement {
        None => out.push_str("placement 0\n"),
        Some(p) => {
            out.push_str("placement 1\ndie");
            for v in [p.die.width_um, p.die.height_um, p.die.site_um] {
                write_f64(out, v);
            }
            writeln!(out, " {} {}", p.die.cols, p.die.rows)?;
            for (tag, pts) in [("pos", p.positions()), ("pip", p.pi_pins()), ("pop", p.po_pins())] {
                write!(out, "{tag} {}", pts.len())?;
                for pt in pts {
                    write_f64(out, pt.x);
                    write_f64(out, pt.y);
                }
                out.push('\n');
            }
        }
    }
    match &st.netlist {
        None => out.push_str("netlist 0\n"),
        Some(n) => {
            writeln!(out, "netlist {}", codec::text_lines(n))?;
            codec::write_text(n, out)?;
        }
    }
    Ok(())
}

/// Writes a space and the 16 lowercase hex digits of `v`'s bits: exact for
/// every value, `-0.0`, subnormals and NaN payloads included.
fn write_f64(out: &mut String, v: f64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bits = v.to_bits();
    let mut text = [b' '; 17];
    for (i, digit) in text[1..].iter_mut().enumerate() {
        *digit = HEX[(bits >> (60 - 4 * i)) as usize & 0xf];
    }
    out.push_str(std::str::from_utf8(&text).expect("hex digits are ASCII"));
}

fn parse_f64(lines: &Lines<'_>, tok: &str) -> Result<f64, CodecError> {
    u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .map_err(|_| lines.err(format!("bad f64 bits {tok:?}")))
}

/// The stage statuses a body carries, keyed by stage name.
pub(crate) type Statuses = BTreeMap<String, StageStatus>;

/// Reads what a stage-cache hit needs of a body without parsing the rest:
/// the cursor it stops at and the statuses of the stages that produced it.
/// The sections between them are skipped line by line, unparsed; a body
/// whose state turns out not to parse is [`read_body`]'s to report.
pub(crate) fn read_head(body: &str) -> Result<(usize, Statuses), CodecError> {
    let lines = &mut Lines::new(body);
    let cursor = lines.count("cursor")?;
    // `verified`, `u` and `f`, then the chains.
    for _ in 0..3 {
        lines.next_line()?;
    }
    for _ in 0..lines.count("chains")? {
        lines.next_line()?;
    }
    Ok((cursor, read_statuses(lines)?))
}

fn read_statuses(lines: &mut Lines<'_>) -> Result<Statuses, CodecError> {
    let mut statuses = BTreeMap::new();
    for _ in 0..lines.count("status")? {
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
    Ok(statuses)
}

/// Parses a body (everything after an entry's head lines) — the inverse of
/// [`write_body`], which must have written all of it: text past the netlist
/// section is an error too. The error is the parse problem and the line it
/// is on.
pub(crate) fn read_body(body: &str) -> Result<(FlowState, Statuses), CodecError> {
    let lines = &mut Lines::new(body);
    let mut st = FlowState::fresh();
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

    let statuses = read_statuses(lines)?;

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
        st.placement = Some(Placement::from_parts(die, positions, pi_pins, po_pins));
    }

    // The netlist section is parsed in place and must end exactly where its
    // count says, and the body with it.
    let n_netlist_lines = lines.count("netlist")?;
    if n_netlist_lines > 0 {
        let first = lines.line_number();
        st.netlist = Some(codec::from_lines(lines)?);
        let read = lines.line_number() - first;
        if read != n_netlist_lines {
            return Err(lines.err(format!("netlist section is {read} lines, not {n_netlist_lines}")));
        }
    }
    if !lines.rest().is_empty() {
        return Err(lines.err("text past the end of the body"));
    }
    Ok((st, statuses))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_netlist::generate;

    /// A body written out by hand from the format rules: a placement holding
    /// `-0.0`, the least subnormal and `f64::MAX`, every status outcome, and
    /// a one-gate netlist.
    const PINNED_BODY: &str = "cursor 4\n\
        verified 1\n\
        u 1 0 0 0 0 0 0 0 0 0 1\n\
        f 0000000000000000 0000000000000000 0000000000000000 c029000000000000 0000000000000000 \
        0000000000000000 0000000000000000 0000000000000000 0000000000000000 3ff0000000000000\n\
        chains 1\n\
        c 1 0\n\
        status 4\n\
        s 1_synthesis 1 C\n\
        s 2_clock_gating 2 D no%20flops%20%25%20here\n\
        s 3_scan 0 S no%09scan\n\
        s 4_place 2 R 2\n\
        placement 1\n\
        die 4024000000000000 4010000000000000 3fe0000000000000 20 8\n\
        pos 1 8000000000000000 0000000000000001\n\
        pip 1 7fefffffffffffff 3ff8000000000000\n\
        pop 1 0000000000000000 c002000000000000\n\
        netlist 12\n\
        eda-netlist v1\n\
        design t\n\
        library generic\n\
        blocks 0\n\
        nets 2\n\
        n a p0 1 0:0\n\
        n g_out i0 0\n\
        insts 1\n\
        i g INV_X1 - 1 1 0\n\
        pis 1 0\n\
        pos 1\n\
        o y 1\n";

    #[test]
    fn body_form_is_pinned() {
        let mut design = Netlist::new("t");
        let a = design.add_input("a");
        let y = design.add_gate_fn("g", eda_netlist::CellFunction::Inv, &[a]).unwrap();
        design.add_output("y", y);

        let mut st = FlowState::fresh();
        st.cursor = 4;
        st.synthesis_verified = Some(true);
        st.cells = 1;
        st.wns_ps = -12.5;
        st.test_coverage = 1.0;
        st.chains = vec![vec![InstId::from_index(0)]];
        let die = eda_place::Die { width_um: 10.0, height_um: 4.0, site_um: 0.5, cols: 20, rows: 8 };
        let subnormal = f64::from_bits(1);
        assert!(subnormal > 0.0 && subnormal < f64::MIN_POSITIVE);
        st.placement = Some(Placement::from_parts(
            die,
            vec![Point::new(-0.0, subnormal)],
            vec![Point::new(f64::MAX, 1.5)],
            vec![Point::new(0.0, -2.25)],
        ));
        st.netlist = Some(design);
        let status = |outcome, attempts| StageStatus { outcome, attempts };
        let statuses: Statuses = [
            ("1_synthesis", status(StageOutcome::Completed, 1)),
            ("2_clock_gating", status(StageOutcome::Degraded { reason: "no flops % here".into() }, 2)),
            ("3_scan", status(StageOutcome::Skipped { cause: "no\tscan".into() }, 0)),
            ("4_place", status(StageOutcome::Recovered { attempts: 2 }, 2)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();

        let mut body = String::new();
        write_body(&st, &statuses, &mut body);
        assert_eq!(body, PINNED_BODY);
        // Both round trips, and the sign of zero survives the placement's.
        let (back, back_statuses) = read_body(PINNED_BODY).unwrap();
        assert_eq!(back_statuses, statuses);
        assert_eq!(back.placement.as_ref().unwrap().positions()[0].x.to_bits(), (-0.0f64).to_bits());
        let mut again = String::new();
        write_body(&back, &back_statuses, &mut again);
        assert_eq!(again, PINNED_BODY);
    }

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
        let (back, back_statuses) = read_body(&body).unwrap();

        assert_eq!(back.cursor, st.cursor);
        assert_eq!(back.synthesis_verified, st.synthesis_verified);
        assert_eq!(back.wns_ps.to_bits(), st.wns_ps.to_bits());
        assert_eq!(back.test_coverage.to_bits(), st.test_coverage.to_bits());
        assert_eq!(back.chains, st.chains);
        assert_eq!(back_statuses, statuses);
        assert_eq!(back.placement, st.placement);
        // The head a cache hit reads says what the whole parse does.
        assert_eq!(read_head(&body).unwrap(), (st.cursor, statuses.clone()));
        // The parsed state, netlist included, re-serializes to the read
        // bytes: what the next stage's key hashes on a replaying run is what
        // it hashed on the run that stored.
        let mut again = String::new();
        write_body(&back, &back_statuses, &mut again);
        assert_eq!(again, body);

        // A cut body is a message, never a panic or a partial state; so is
        // one with text past its end.
        assert!(read_body(&body[..body.len() / 2]).is_err());
        assert!(read_body(&format!("{body}o extra 0\n")).is_err());
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
