//! Exact, line-oriented text serialization of a [`Netlist`] for the flow's
//! persisted stage state.
//!
//! The format is designed for *bit-identical* round trips, not for human
//! interchange (that is [`verilog`](crate::verilog)'s job): every vector is
//! written in storage order, floating-point values never appear (cells are
//! referenced by name against the library), and names are percent-escaped so
//! arbitrary identifiers survive. `from_text(to_text(n))` reconstructs `n`
//! field-for-field, including sink ordering — which transformation passes
//! rely on — and hierarchy labels.
//!
//! Only the three built-in libraries (`generic`, `nand_inv_2006`,
//! `controlled_polarity`) can be resolved at load time; a netlist bound to a
//! custom library is rejected with [`CodecError::UnknownLibrary`].

use crate::cell::Library;
use crate::netlist::{BlockTable, InstId, Instance, Net, NetDriver, NetId, NetIndex, Netlist};
use std::borrow::Cow;

/// Errors from [`from_text`] and the [`Lines`] reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A line did not parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The library name is not one of the built-ins.
    UnknownLibrary(String),
    /// A cell name was not found in the library.
    UnknownCell(String),
    /// A net name repeats an earlier net's, which no built netlist can hold.
    RepeatedNetName {
        /// 1-based line number of the repeat.
        line: usize,
        /// The repeated name.
        name: String,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Parse { line, reason } => write!(f, "line {line}: {reason}"),
            CodecError::UnknownLibrary(n) => write!(f, "netlist codec: unknown library `{n}`"),
            CodecError::UnknownCell(n) => write!(f, "netlist codec: unknown cell `{n}`"),
            CodecError::RepeatedNetName { line, name } => {
                write!(f, "line {line}: net name `{name}` repeats an earlier net's")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Whether [`write_name`] percent-escapes byte `b`: the ones that would
/// split a name across tokens or lines, and the escape byte itself.
fn needs_escape(b: u8) -> bool {
    matches!(b, b'%' | b' ' | b'\n' | b'\r' | b'\t')
}

/// Writes `s` with `%`, spaces, tabs, `\r` and `\n` percent-escaped, so it
/// stays one token on a space-split line. A name that holds none of them —
/// nearly every name — is written as it is, in one call.
pub fn write_name(out: &mut impl std::fmt::Write, s: &str) -> std::fmt::Result {
    if !s.bytes().any(needs_escape) {
        return out.write_str(s);
    }
    for c in s.chars() {
        match u8::try_from(c) {
            Ok(b) if needs_escape(b) => write!(out, "%{b:02x}")?,
            _ => out.write_char(c)?,
        }
    }
    Ok(())
}

/// [`write_name`] into a new string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    write_name(&mut out, s).expect("writing to a String never fails");
    out
}

/// Writes `s` with spaces, `%` and every ASCII control character (below
/// 0x20, and DEL) percent-escaped, so a value stays one token on a
/// space-split row: the rule of the store's provenance rows and the AIG
/// digest text, stricter than [`escape`]. Every other character, non-ASCII
/// text included, is written as it is. Decoded by [`unescape`].
pub fn write_token(out: &mut impl std::fmt::Write, s: &str) -> std::fmt::Result {
    for c in s.chars() {
        match u8::try_from(c) {
            Ok(b) if b == b' ' || b == b'%' || b < 0x20 || b == 0x7f => write!(out, "%{b:02x}")?,
            _ => out.write_char(c)?,
        }
    }
    Ok(())
}

/// Inverse of [`write_name`] and [`write_token`].
pub fn unescape(s: &str) -> Result<String, String> {
    unescaped(s).map(Cow::into_owned)
}

/// [`unescape`], borrowing `s` when it holds no escape.
fn unescaped(s: &str) -> Result<Cow<'_, str>, String> {
    if !s.contains('%') {
        return Ok(Cow::Borrowed(s));
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| format!("truncated escape in {s:?}"))?;
            let hex = std::str::from_utf8(hex).map_err(|_| format!("bad escape in {s:?}"))?;
            let b = u8::from_str_radix(hex, 16).map_err(|_| format!("bad escape in {s:?}"))?;
            out.push(b);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map(Cow::Owned).map_err(|_| format!("non-utf8 name in {s:?}"))
}

/// Serializes a netlist to the exact text form.
pub fn to_text(n: &Netlist) -> String {
    let mut out = String::new();
    write_text(n, &mut out).expect("writing to a String never fails");
    out
}

/// Streams the exact text form of a netlist into `out`: [`to_text`] without
/// the string, for a caller that embeds or hashes it.
pub fn write_text(n: &Netlist, out: &mut impl std::fmt::Write) -> std::fmt::Result {
    out.write_str("eda-netlist v1\ndesign ")?;
    write_name(out, &n.name)?;
    out.write_str("\nlibrary ")?;
    write_name(out, n.library.name())?;
    writeln!(out, "\nblocks {}", n.block_names().len())?;
    for b in n.block_names() {
        out.write_str("b ")?;
        write_name(out, b)?;
        out.write_char('\n')?;
    }
    writeln!(out, "nets {}", n.nets.len())?;
    for net in &n.nets {
        out.write_str("n ")?;
        write_name(out, &net.name)?;
        match net.driver {
            None => out.write_str(" -")?,
            Some(NetDriver::PrimaryInput(i)) => write!(out, " p{i}")?,
            Some(NetDriver::Instance(id)) => write!(out, " i{}", id.index())?,
        }
        write!(out, " {}", net.sinks.len())?;
        for (inst, pin) in &net.sinks {
            write!(out, " {}:{pin}", inst.index())?;
        }
        out.write_char('\n')?;
    }
    writeln!(out, "insts {}", n.instances.len())?;
    for inst in &n.instances {
        out.write_str("i ")?;
        write_name(out, &inst.name)?;
        out.write_char(' ')?;
        write_name(out, n.library.cell(inst.cell).name.as_str())?;
        match inst.block {
            None => out.write_str(" -")?,
            Some(b) => write!(out, " {b}")?,
        }
        write!(out, " {} {}", inst.output.index(), inst.inputs.len())?;
        for net in &inst.inputs {
            write!(out, " {}", net.index())?;
        }
        out.write_char('\n')?;
    }
    write!(out, "pis {}", n.inputs.len())?;
    for net in &n.inputs {
        write!(out, " {}", net.index())?;
    }
    writeln!(out, "\npos {}", n.outputs.len())?;
    for (name, net) in &n.outputs {
        out.write_str("o ")?;
        write_name(out, name)?;
        writeln!(out, " {}", net.index())?;
    }
    Ok(())
}

/// A cursor over the `\n`-separated lines of a text, numbering them for
/// error messages. It walks a slice, not an iterator, so [`Lines::rest`] is
/// exactly what it has not consumed. A `\r` before a `\n` stays in its line.
pub struct Lines<'a> {
    rest: &'a str,
    num: usize,
}

impl<'a> Lines<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Lines<'a> {
        Lines { rest: text, num: 0 }
    }

    /// The number of the line last read (0 before the first).
    pub fn line_number(&self) -> usize {
        self.num
    }

    /// The input not yet read.
    pub fn rest(&self) -> &'a str {
        self.rest
    }

    /// Reads the next line, without its `\n`; an error at the end.
    pub fn next_line(&mut self) -> Result<&'a str, CodecError> {
        self.num += 1;
        if self.rest.is_empty() {
            return Err(self.err("unexpected end of input"));
        }
        let (line, rest) = self.rest.split_once('\n').unwrap_or((self.rest, ""));
        self.rest = rest;
        Ok(line)
    }

    /// A parse error on the line last read.
    pub fn err(&self, reason: impl Into<String>) -> CodecError {
        CodecError::Parse { line: self.num, reason: reason.into() }
    }

    /// Reads a `tag <count>` line and returns the count.
    pub fn count(&mut self, tag: &str) -> Result<usize, CodecError> {
        let line = self.next_line()?;
        let rest = line
            .strip_prefix(tag)
            .and_then(|r| r.strip_prefix(' '))
            .ok_or_else(|| self.err(format!("expected `{tag} <count>`, got {line:?}")))?;
        self.parse(rest, "count")
    }

    /// Reads a line of space-separated tokens led by `tag`; returns the
    /// tokens after it.
    pub fn tagged(&mut self, tag: &str) -> Result<std::str::Split<'a, char>, CodecError> {
        let mut toks = self.next_line()?.split(' ');
        let t = self.tok(&mut toks, "tag")?;
        if t != tag {
            return Err(self.err(format!("expected tag `{tag}`, got {t:?}")));
        }
        Ok(toks)
    }

    /// Parses one token; the error names `what`.
    pub fn parse<T: std::str::FromStr>(&self, tok: &str, what: &str) -> Result<T, CodecError> {
        tok.parse().map_err(|_| self.err(format!("bad {what}: {tok:?}")))
    }

    fn tok(&self, toks: &mut std::str::Split<'a, char>, what: &str) -> Result<&'a str, CodecError> {
        toks.next().ok_or_else(|| self.err(format!("missing {what}")))
    }

    fn parse_tok<T: std::str::FromStr>(
        &self,
        toks: &mut std::str::Split<'a, char>,
        what: &str,
    ) -> Result<T, CodecError> {
        self.parse(self.tok(toks, what)?, what)
    }

    /// Reads a `tag <escaped name>` line and returns the name.
    fn field(&mut self, tag: &str) -> Result<String, CodecError> {
        let line = self.next_line()?;
        let rest = line
            .strip_prefix(tag)
            .and_then(|r| r.strip_prefix(' '))
            .ok_or_else(|| self.err(format!("expected `{tag} ...`, got {line:?}")))?;
        unescape(rest).map_err(|e| self.err(e))
    }

    /// Reads the next token as a name written by [`write_name`].
    fn name(&self, toks: &mut std::str::Split<'a, char>, what: &str) -> Result<Cow<'a, str>, CodecError> {
        unescaped(self.tok(toks, what)?).map_err(|e| self.err(e))
    }
}

/// Deserializes a netlist written by [`to_text`].
pub fn from_text(text: &str) -> Result<Netlist, CodecError> {
    from_lines(&mut Lines::new(text))
}

/// Deserializes a netlist written by [`to_text`] from the cursor on, leaving
/// it on the netlist's last line: how a larger text embeds one.
pub fn from_lines(lines: &mut Lines<'_>) -> Result<Netlist, CodecError> {
    let header = lines.next_line()?;
    if header != "eda-netlist v1" {
        return Err(lines.err(format!("bad header {header:?}")));
    }

    let name = lines.field("design")?;
    let lib_name = lines.field("library")?;
    let library = match lib_name.as_str() {
        "generic" => Library::generic(),
        "nand_inv_2006" => Library::nand_inv_2006(),
        "controlled_polarity" => Library::controlled_polarity(),
        other => return Err(CodecError::UnknownLibrary(other.to_string())),
    };

    let n_blocks = lines.count("blocks")?;
    let mut block_names = Vec::with_capacity(n_blocks);
    for _ in 0..n_blocks {
        block_names.push(lines.field("b")?);
    }

    let n_nets = lines.count("nets")?;
    let mut nets = Vec::with_capacity(n_nets);
    let mut net_index = NetIndex::with_capacity(n_nets);
    for idx in 0..n_nets {
        let mut toks = lines.tagged("n")?;
        let net_name = lines.name(&mut toks, "net name")?;
        let driver_tok = lines.tok(&mut toks, "driver")?;
        let driver = match driver_tok {
            "-" => None,
            t => {
                if t.len() < 2 {
                    return Err(lines.err(format!("bad driver {t:?}")));
                }
                let (kind, rest) = t.split_at(1);
                let i: usize = rest.parse().map_err(|_| lines.err(format!("bad driver {t:?}")))?;
                match kind {
                    "p" => Some(NetDriver::PrimaryInput(i)),
                    "i" => Some(NetDriver::Instance(InstId(i as u32))),
                    _ => return Err(lines.err(format!("bad driver {t:?}"))),
                }
            }
        };
        let n_sinks: usize = lines.parse_tok(&mut toks, "sink count")?;
        let mut sinks = Vec::with_capacity(n_sinks);
        for _ in 0..n_sinks {
            let s = lines.tok(&mut toks, "sink")?;
            let (inst, pin) = s
                .split_once(':')
                .ok_or_else(|| lines.err(format!("bad sink {s:?}")))?;
            let inst: usize = inst.parse().map_err(|_| lines.err(format!("bad sink {s:?}")))?;
            let pin: u32 = pin.parse().map_err(|_| lines.err(format!("bad sink {s:?}")))?;
            sinks.push((InstId(inst as u32), pin));
        }
        nets.push(Net { name: net_name.into(), driver, sinks });
        if net_index.insert(&nets, NetId(idx as u32)).is_err() {
            let name = nets[idx].name.to_string();
            return Err(CodecError::RepeatedNetName { line: lines.line_number(), name });
        }
    }

    let n_insts = lines.count("insts")?;
    let mut instances = Vec::with_capacity(n_insts);
    for _ in 0..n_insts {
        let mut toks = lines.tagged("i")?;
        let inst_name = lines.name(&mut toks, "instance name")?;
        let cell_name = lines.name(&mut toks, "cell name")?;
        let cell = library
            .find(&cell_name)
            .ok_or_else(|| CodecError::UnknownCell(cell_name.into_owned()))?;
        let block_tok = lines.tok(&mut toks, "block")?;
        let block = match block_tok {
            "-" => None,
            t => Some(t.parse().map_err(|_| lines.err(format!("bad block {t:?}")))?),
        };
        let output: usize = lines.parse_tok(&mut toks, "output net")?;
        let n_inputs: usize = lines.parse_tok(&mut toks, "input count")?;
        let mut inputs = Vec::with_capacity(n_inputs);
        for _ in 0..n_inputs {
            let i: usize = lines.parse_tok(&mut toks, "input net")?;
            inputs.push(NetId(i as u32));
        }
        instances.push(Instance {
            name: inst_name.into(),
            cell,
            inputs: inputs.into_boxed_slice(),
            output: NetId(output as u32),
            block,
        });
    }

    let mut toks = lines.tagged("pis")?;
    let n_pis: usize = lines.parse_tok(&mut toks, "pi count")?;
    let mut inputs = Vec::with_capacity(n_pis);
    for _ in 0..n_pis {
        let i: usize = lines.parse_tok(&mut toks, "pi net")?;
        inputs.push(NetId(i as u32));
    }

    let n_pos = lines.count("pos")?;
    let mut outputs = Vec::with_capacity(n_pos);
    for _ in 0..n_pos {
        let mut toks = lines.tagged("o")?;
        let po_name = lines.name(&mut toks, "output name")?.into_owned();
        let net: usize = lines.parse_tok(&mut toks, "output net")?;
        outputs.push((po_name, NetId(net as u32)));
    }

    let blocks = BlockTable::from_names(block_names);
    let netlist = Netlist { name, library, instances, nets, inputs, outputs, blocks, net_index };

    // Bounds sanity so later index accesses cannot panic on corrupt input.
    let n_nets = netlist.nets.len();
    let n_insts = netlist.instances.len();
    let net_ok = |id: NetId| id.index() < n_nets;
    let inst_ok = |id: InstId| id.index() < n_insts;
    let ok = netlist.instances.iter().all(|i| net_ok(i.output) && i.inputs.iter().all(|&n| net_ok(n)))
        && netlist.nets.iter().all(|n| {
            n.sinks.iter().all(|&(i, _)| inst_ok(i))
                && match n.driver {
                    Some(NetDriver::Instance(i)) => inst_ok(i),
                    _ => true,
                }
        })
        && netlist.inputs.iter().all(|&n| net_ok(n))
        && netlist.outputs.iter().all(|&(_, n)| net_ok(n));
    if !ok {
        return Err(CodecError::Parse { line: 0, reason: "index out of bounds".into() });
    }
    Ok(netlist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    fn assert_identical(a: &Netlist, b: &Netlist) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.library.name(), b.library.name());
        assert_eq!(a.instances, b.instances);
        assert_eq!(a.nets, b.nets);
        assert_eq!(a.inputs, b.inputs);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.block_names(), b.block_names());
        // The decoded name index answers every lookup the built one does.
        for (id, net) in a.nets() {
            assert_eq!(a.find_net(net.name()), Some(id), "net {:?}", net.name());
            assert_eq!(b.find_net(net.name()), Some(id), "net {:?}", net.name());
        }
        assert_eq!(b.find_net("no_such_net"), None);
    }

    #[test]
    fn roundtrip_is_exact() {
        for design in [
            generate::switch_fabric(3, 3).unwrap(),
            generate::ripple_carry_adder(8).unwrap(),
            generate::parity_tree(16).unwrap(),
        ] {
            let text = to_text(&design);
            let back = from_text(&text).unwrap();
            assert_identical(&design, &back);
            // And the round trip is a fixed point.
            assert_eq!(to_text(&back), text);
        }
    }

    #[test]
    fn decoded_netlist_keeps_assigning_into_its_block_order() {
        // The name → index map is rebuilt on decode: an existing block keeps
        // its index, a new one appends, exactly as on the original.
        let design = generate::mesh_fabric(2, 2, 30, 3, 5).unwrap();
        let mut back = from_text(&to_text(&design)).unwrap();
        let names = design.block_names().to_vec();
        assert!(names.len() >= 4, "one block per tile");
        let inst = InstId::from_index(0);
        back.assign_block(inst, &names[2]);
        assert_eq!(back.instance(inst).block(), Some(2));
        back.assign_block(inst, "fresh_block");
        assert_eq!(back.instance(inst).block(), Some(names.len() as u32));
        assert_eq!(back.block_names()[..names.len()], names[..]);
    }

    #[test]
    fn names_with_specials_survive() {
        assert_eq!(escape("a b%c\nd\te\r"), "a%20b%25c%0ad%09e%0d");
        assert_eq!(unescape(&escape("a b%c\nd\te")).unwrap(), "a b%c\nd\te");
        assert_eq!(unescape(&escape("plain_name[3]")).unwrap(), "plain_name[3]");
        // Non-ASCII text is written as it is, escaped neighbours or not.
        assert_eq!(escape("µ%"), "µ%25");
        assert_eq!(unescape(&escape("µ x")).unwrap(), "µ x");
    }

    #[test]
    fn tokens_escape_ascii_specials_and_keep_other_text() {
        let token = |s: &str| {
            let mut out = String::new();
            write_token(&mut out, s).unwrap();
            out
        };
        assert_eq!(token("µ x"), "µ%20x");
        assert_eq!(unescape(&token("µ x")).unwrap(), "µ x");
        assert_eq!(token("a%\u{1}\u{7f}\u{85}行"), "a%25%01%7f\u{85}行");
        assert_eq!(unescape(&token("a%\u{1}\u{7f}\u{85}行")).unwrap(), "a%\u{1}\u{7f}\u{85}行");
    }

    /// The text form, written out by hand from the format rules: a netlist
    /// whose design, block, net, instance and output names hold a space, `%`,
    /// `\t`, `\r`, `\n` and non-ASCII text.
    const PINNED_TEXT: &str = "eda-netlist v1\n\
        design top%201%25\n\
        library generic\n\
        blocks 1\n\
        b blk%200%0d\n\
        nets 4\n\
        n in%09a p0 1 0:0\n\
        n in%20b p1 1 0:1\n\
        n g%0a1_out i0 1 1:0\n\
        n µ%25_out i1 0\n\
        insts 2\n\
        i g%0a1 NAND2_X1 - 2 2 0 1\n\
        i µ%25 INV_X1 0 3 1 2\n\
        pis 2 0 1\n\
        pos 2\n\
        o out%09y 2\n\
        o z 3\n";

    fn pinned_netlist() -> Netlist {
        use crate::cell::CellFunction;
        let mut n = Netlist::new("top 1%");
        let a = n.add_input("in\ta");
        let b = n.add_input("in b");
        let y = n.add_gate_fn("g\n1", CellFunction::Nand(2), &[a, b]).unwrap();
        let z = n.add_gate_fn("µ%", CellFunction::Inv, &[y]).unwrap();
        n.assign_block(InstId::from_index(1), "blk 0\r");
        n.add_output("out\ty", y);
        n.add_output("z", z);
        n
    }

    #[test]
    fn text_form_is_pinned() {
        let n = pinned_netlist();
        assert_eq!(to_text(&n), PINNED_TEXT);
        // Both round trips: the netlist through the text, the text through
        // the netlist.
        assert_identical(&from_text(&to_text(&n)).unwrap(), &n);
        assert_eq!(to_text(&from_text(PINNED_TEXT).unwrap()), PINNED_TEXT);
    }

    #[test]
    fn corrupt_input_is_a_typed_error() {
        assert!(from_text("garbage").is_err());
        let design = generate::ripple_carry_adder(4).unwrap();
        let text = to_text(&design);
        let truncated = &text[..text.len() / 2];
        assert!(from_text(truncated).is_err());
    }
}
