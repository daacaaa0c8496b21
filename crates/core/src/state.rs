//! The flow state, its parts, and their codec: exact text for each part a
//! stage writes, as its stage-cache entry stores it ([`crate::cache`]), and
//! the bytes whose digests the cache keys of the stages that read the part
//! hash. A flow that is killed and rerun against the same store replays these
//! parts stage by stage, so it resumes from the last good stage with
//! bit-identical QoR.
//!
//! The state is cut into [`Part`]s: the netlist, the placement, the scan
//! chains, and each stage's own scalar outputs. Every stage of the flow's
//! table declares the parts it reads and the parts it writes; the driver
//! keys a stage on the digests of its reads and stores what it wrote, so an
//! edit misses only at the stages whose reads it moved.
//!
//! The format is line-oriented text. Everything that influences QoR
//! round-trips exactly: `f64` values are written as `to_bits()` hex (never
//! decimal), the netlist goes through [`eda_netlist::codec`], and the
//! placement is stored as raw geometry ([`eda_place::Placement::from_parts`])
//! rather than being re-derived from the netlist — whose instance count may
//! legitimately differ from placement time once decaps are inserted.
//! [`write_part`] streams into one reused `String` — the netlist included,
//! and borrowing the placement — and allocates nothing per point, sink or
//! name.
//!
//! Nothing here touches the file system: where the bytes live, how they are
//! addressed and what happens when they are damaged is the store's business.

use crate::flow::STAGES;
use crate::harness::{StageOutcome, StageStatus};
use eda_netlist::codec::{unescape, write_name, Lines};
use eda_netlist::{codec, CodecError, InstId, Netlist};
use eda_place::{Placement, Point};
use std::fmt::{self, Write};

/// Everything the flow has computed so far. Each stage reads its inputs
/// from here and writes its outputs back, part by part ([`Part`]). It holds
/// state only: what one run observed about itself (seconds, workers,
/// speedups) belongs to that run's driver and report, never to an entry.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlowState {
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

/// A part of the flow state: the unit a stage declares it reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Part {
    Netlist,
    Placement,
    Chains,
    /// The scalar outputs of the stage at this position of the flow.
    Outputs(usize),
}

impl Part {
    /// The number of parts: three shared ones and each stage's outputs.
    pub const COUNT: usize = 3 + STAGES.len();

    /// The part's slot in a per-part array.
    pub fn index(self) -> usize {
        match self {
            Part::Netlist => 0,
            Part::Placement => 1,
            Part::Chains => 2,
            Part::Outputs(stage) => 3 + stage,
        }
    }

    /// The tag of the part's section in an entry.
    pub fn tag(self) -> &'static str {
        match self {
            Part::Netlist => "netlist",
            Part::Placement => "placement",
            Part::Chains => "chains",
            Part::Outputs(_) => "outputs",
        }
    }
}

/// A scalar output of a stage as the codec and the driver see it: 64 bits,
/// all of them zero while the output is taken out of the state.
pub(crate) trait Scalar {
    fn bits(&self) -> u64;
    fn set_bits(&mut self, bits: u64);
}

impl Scalar for f64 {
    fn bits(&self) -> u64 {
        self.to_bits()
    }
    fn set_bits(&mut self, bits: u64) {
        *self = f64::from_bits(bits);
    }
}

macro_rules! int_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn bits(&self) -> u64 {
                *self as u64
            }
            fn set_bits(&mut self, bits: u64) {
                *self = bits as $t;
            }
        }
    )*};
}
int_scalar!(u64, usize, u32);

impl Scalar for bool {
    fn bits(&self) -> u64 {
        u64::from(*self)
    }
    fn set_bits(&mut self, bits: u64) {
        *self = bits != 0;
    }
}

impl Scalar for Option<bool> {
    fn bits(&self) -> u64 {
        self.map_or(0, |v| 1 + u64::from(v))
    }
    fn set_bits(&mut self, bits: u64) {
        *self = bits.checked_sub(1).map(|v| v != 0);
    }
}

/// Revision of the entry format: the parts' texts, their sections, and the
/// key over the digests of a stage's reads. Folded into every stage-cache
/// address ([`crate::cache::entry_key`]), so a store written under an older
/// revision is never addressed — its entries read as misses and age out —
/// instead of failing to parse. Bump it when the emitted bytes change; a
/// writer that emits the same bytes faster keeps it. Revision 2 dropped the
/// wall-clock maps; revision 3 keys on read digests and stores writes only.
pub(crate) const BODY_REV: u32 = 3;

/// Writes the text of `part` of `st`: the netlist in its codec, the
/// placement's die and points, one line per scan chain, or — for
/// [`Part::Outputs`] — `outputs`, the stage's own scalar outputs' bits, on
/// one line.
pub(crate) fn write_part(st: &FlowState, part: Part, outputs: &[u64], out: &mut String) {
    emit_part(st, part, outputs, out).expect("writing to a String never fails");
}

fn emit_part(st: &FlowState, part: Part, outputs: &[u64], out: &mut String) -> fmt::Result {
    match part {
        Part::Outputs(_) => {
            out.push('o');
            outputs.iter().for_each(|&bits| write_hex(out, bits));
            out.push('\n');
        }
        Part::Chains => {
            for chain in &st.chains {
                write!(out, "c {}", chain.len())?;
                for inst in chain {
                    write!(out, " {}", inst.index())?;
                }
                out.push('\n');
            }
        }
        Part::Placement => {
            let p = st.placement.as_ref().expect("a placement writer leaves a placement");
            out.push_str("die");
            for v in [p.die.width_um, p.die.height_um, p.die.site_um] {
                write_hex(out, v.to_bits());
            }
            writeln!(out, " {} {}", p.die.cols, p.die.rows)?;
            for (tag, pts) in [("pos", p.positions()), ("pip", p.pi_pins()), ("pop", p.po_pins())] {
                write!(out, "{tag} {}", pts.len())?;
                for pt in pts {
                    write_hex(out, pt.x.to_bits());
                    write_hex(out, pt.y.to_bits());
                }
                out.push('\n');
            }
        }
        Part::Netlist => {
            codec::write_text(st.netlist.as_ref().expect("a netlist writer leaves a netlist"), out)?;
        }
    }
    Ok(())
}

/// Writes a space and the 16 lowercase hex digits of `bits`: exact for every
/// `f64`'s bits, `-0.0`, subnormals and NaN payloads included.
fn write_hex(out: &mut String, bits: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut text = [b' '; 17];
    for (i, digit) in text[1..].iter_mut().enumerate() {
        *digit = HEX[(bits >> (60 - 4 * i)) as usize & 0xf];
    }
    out.push_str(std::str::from_utf8(&text).expect("hex digits are ASCII"));
}

fn parse_hex(lines: &Lines<'_>, tok: &str) -> Result<u64, CodecError> {
    u64::from_str_radix(tok, 16).map_err(|_| lines.err(format!("bad bits {tok:?}")))
}

fn parse_f64(lines: &Lines<'_>, tok: &str) -> Result<f64, CodecError> {
    parse_hex(lines, tok).map(f64::from_bits)
}

/// Fails unless `lines` read all of its text.
fn at_end(lines: &Lines<'_>) -> Result<(), CodecError> {
    if lines.rest().is_empty() {
        Ok(())
    } else {
        Err(lines.err("text past the end of the part"))
    }
}

/// Reads a [`Part::Outputs`] text: the bits of `count` scalar outputs.
pub(crate) fn read_outputs(text: &str, count: usize) -> Result<Vec<u64>, CodecError> {
    let lines = &mut Lines::new(text);
    let toks: Vec<&str> = lines.tagged("o")?.collect();
    if toks.len() != count {
        return Err(lines.err(format!("{} outputs, the stage has {count}", toks.len())));
    }
    let bits = toks.iter().map(|t| parse_hex(lines, t)).collect::<Result<_, _>>()?;
    at_end(lines)?;
    Ok(bits)
}

/// Reads a [`Part::Chains`] text.
pub(crate) fn read_chains(text: &str) -> Result<Vec<Vec<InstId>>, CodecError> {
    let lines = &mut Lines::new(text);
    let mut chains = Vec::new();
    while !lines.rest().is_empty() {
        let c: Vec<&str> = lines.tagged("c")?.collect();
        let len: usize = lines.parse(c.first().copied().unwrap_or(""), "chain length")?;
        if c.len() != len + 1 {
            return Err(lines.err("chain length mismatch"));
        }
        chains.push(c[1..].iter().map(|t| lines.parse(t, "chain element").map(InstId::from_index)).collect::<Result<_, _>>()?);
    }
    Ok(chains)
}

/// Reads a [`Part::Placement`] text.
pub(crate) fn read_placement(text: &str) -> Result<Placement, CodecError> {
    let lines = &mut Lines::new(text);
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
    at_end(lines)?;
    let [positions, pi_pins, po_pins] = vecs;
    Ok(Placement::from_parts(die, positions, pi_pins, po_pins))
}

/// Reads a [`Part::Netlist`] text, which must end where the netlist does.
pub(crate) fn read_netlist(text: &str) -> Result<Netlist, CodecError> {
    let lines = &mut Lines::new(text);
    let netlist = codec::from_lines(lines)?;
    at_end(lines)?;
    Ok(netlist)
}

/// Writes a stage's status as one line: its attempts and its outcome.
pub(crate) fn write_status(s: &StageStatus, out: &mut String) {
    emit_status(s, out).expect("writing to a String never fails");
}

fn emit_status(s: &StageStatus, out: &mut String) -> fmt::Result {
    write!(out, "s {} ", s.attempts)?;
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
    Ok(())
}

/// Reads the status line [`write_status`] wrote from `lines`.
pub(crate) fn read_status(lines: &mut Lines<'_>) -> Result<StageStatus, CodecError> {
    let s: Vec<&str> = lines.tagged("s")?.collect();
    if s.len() < 2 {
        return Err(lines.err("bad status line"));
    }
    let attempts: usize = lines.parse(s[0], "attempts")?;
    let outcome = match (s[1], s.get(2), s.len()) {
        ("C", None, _) => StageOutcome::Completed,
        ("R", Some(n), 3) => StageOutcome::Recovered { attempts: lines.parse(n, "recovered attempts")? },
        ("D", Some(r), 3) => StageOutcome::Degraded { reason: unescape(r).map_err(|e| lines.err(e))? },
        ("S", Some(c), 3) => StageOutcome::Skipped { cause: unescape(c).map_err(|e| lines.err(e))? },
        _ => return Err(lines.err("bad status line")),
    };
    Ok(StageStatus { outcome, attempts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_netlist::generate;

    /// Part texts written out by hand from the format rules: outputs holding
    /// `-12.5` and `true`, two chains, and a placement holding `-0.0`, the
    /// least subnormal and `f64::MAX`.
    const PINNED_OUTPUTS: &str = "o c029000000000000 0000000000000001\n";
    const PINNED_CHAINS: &str = "c 1 0\nc 2 3 1\n";
    const PINNED_PLACEMENT: &str = "die 4024000000000000 4010000000000000 3fe0000000000000 20 8\n\
        pos 1 8000000000000000 0000000000000001\n\
        pip 1 7fefffffffffffff 3ff8000000000000\n\
        pop 1 0000000000000000 c002000000000000\n";

    fn text(st: &FlowState, part: Part, outputs: &[u64]) -> String {
        let mut out = String::new();
        write_part(st, part, outputs, &mut out);
        out
    }

    #[test]
    fn part_texts_are_pinned() {
        let mut st = FlowState::fresh();
        st.chains = vec![vec![InstId::from_index(0)], vec![InstId::from_index(3), InstId::from_index(1)]];
        let die = eda_place::Die { width_um: 10.0, height_um: 4.0, site_um: 0.5, cols: 20, rows: 8 };
        let subnormal = f64::from_bits(1);
        assert!(subnormal > 0.0 && subnormal < f64::MIN_POSITIVE);
        st.placement = Some(Placement::from_parts(
            die,
            vec![Point::new(-0.0, subnormal)],
            vec![Point::new(f64::MAX, 1.5)],
            vec![Point::new(0.0, -2.25)],
        ));
        let outputs = [(-12.5f64).bits(), true.bits()];
        assert_eq!(text(&st, Part::Outputs(6), &outputs), PINNED_OUTPUTS);
        assert_eq!(text(&st, Part::Chains, &[]), PINNED_CHAINS);
        assert_eq!(text(&st, Part::Placement, &[]), PINNED_PLACEMENT);

        // Each round trip, and the sign of zero survives the placement's.
        assert_eq!(read_outputs(PINNED_OUTPUTS, 2).unwrap(), outputs);
        assert_eq!(read_chains(PINNED_CHAINS).unwrap(), st.chains);
        let back = read_placement(PINNED_PLACEMENT).unwrap();
        assert_eq!(back.positions()[0].x.to_bits(), (-0.0f64).to_bits());
        assert_eq!(Some(back), st.placement);
    }

    #[test]
    fn scalars_round_trip_through_their_bits() {
        for v in [None, Some(false), Some(true)] {
            let mut back = Some(true);
            back.set_bits(v.bits());
            assert_eq!(back, v);
        }
        let mut x = 0.0f64;
        x.set_bits(f64::NAN.bits());
        assert_eq!(x.to_bits(), f64::NAN.to_bits());
        // A taken-out output is all zero bits.
        assert_eq!((false.bits(), None::<bool>.bits(), 0.0f64.bits(), 0usize.bits()), (0, 0, 0, 0));
    }

    #[test]
    fn statuses_round_trip() {
        let status = |outcome, attempts| StageStatus { outcome, attempts };
        for (s, pinned) in [
            (status(StageOutcome::Completed, 1), "s 1 C\n"),
            (status(StageOutcome::Degraded { reason: "no flops % here".into() }, 2), "s 2 D no%20flops%20%25%20here\n"),
            (status(StageOutcome::Skipped { cause: "no\tscan".into() }, 0), "s 0 S no%09scan\n"),
            (status(StageOutcome::Recovered { attempts: 2 }, 2), "s 2 R 2\n"),
        ] {
            let mut line = String::new();
            write_status(&s, &mut line);
            assert_eq!(line, pinned);
            assert_eq!(read_status(&mut Lines::new(&line)).unwrap(), s, "{line:?}");
        }
        for bad in ["s 1 C extra\n", "s 1 R\n", "s x C\n", "t 1 C\n"] {
            assert!(read_status(&mut Lines::new(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parts_round_trip_exactly_and_reject_damage() {
        let design = generate::switch_fabric(3, 2).unwrap();
        let mut st = FlowState::fresh();
        let die = eda_place::Die::for_netlist(&design, 0.7);
        st.placement = Some(Placement::new(&design, die));
        st.netlist = Some(design);

        let netlist = text(&st, Part::Netlist, &[]);
        let back = read_netlist(&netlist).unwrap();
        assert_eq!(codec::to_text(&back), netlist);
        let placement = text(&st, Part::Placement, &[]);
        assert_eq!(Some(read_placement(&placement).unwrap()), st.placement);

        // A cut part is a message, never a panic or a partial state; so is
        // one with text past its end.
        assert!(read_netlist(&netlist[..netlist.len() / 2]).is_err());
        assert!(read_netlist(&format!("{netlist}o extra 0\n")).is_err());
        assert!(read_placement(&placement[..placement.len() / 2]).is_err());
        assert!(read_placement(&format!("{placement}pos 0\n")).is_err());
        assert!(read_outputs(PINNED_OUTPUTS, 3).is_err(), "a wrong output count");
        assert!(read_chains("c 2 1\n").is_err());
    }
}
