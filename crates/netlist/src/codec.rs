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

/// Percent-escapes a name so it contains no whitespace and no `%`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'%' | b' ' | b'\n' | b'\r' | b'\t' => {
                out.push('%');
                out.push_str(&format!("{b:02x}"));
            }
            _ => out.push(b as char),
        }
    }
    out
}

/// Writes `s` with spaces, `%` and every control byte (below 0x20, and DEL)
/// percent-escaped, so a value stays one token on a space-split row: the rule
/// of the store's provenance rows and the AIG sub-stage payload, stricter
/// than [`escape`]. Decoded by [`unescape`].
pub fn write_token(out: &mut impl std::fmt::Write, s: &str) -> std::fmt::Result {
    for b in s.bytes() {
        if b == b' ' || b == b'%' || b < 0x20 || b == 0x7f {
            write!(out, "%{b:02x}")?;
        } else {
            out.write_char(b as char)?;
        }
    }
    Ok(())
}

/// Inverse of [`escape`] and [`write_token`].
pub fn unescape(s: &str) -> Result<String, String> {
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
    String::from_utf8(out).map_err(|_| format!("non-utf8 name in {s:?}"))
}

/// Serializes a netlist to the exact text form.
pub fn to_text(n: &Netlist) -> String {
    let mut out = String::new();
    out.push_str("eda-netlist v1\n");
    out.push_str(&format!("design {}\n", escape(&n.name)));
    out.push_str(&format!("library {}\n", escape(n.library.name())));
    out.push_str(&format!("blocks {}\n", n.block_names().len()));
    for b in n.block_names() {
        out.push_str(&format!("b {}\n", escape(b)));
    }
    out.push_str(&format!("nets {}\n", n.nets.len()));
    for net in &n.nets {
        let driver = match net.driver {
            None => "-".to_string(),
            Some(NetDriver::PrimaryInput(i)) => format!("p{i}"),
            Some(NetDriver::Instance(id)) => format!("i{}", id.index()),
        };
        out.push_str(&format!("n {} {} {}", escape(&net.name), driver, net.sinks.len()));
        for (inst, pin) in &net.sinks {
            out.push_str(&format!(" {}:{}", inst.index(), pin));
        }
        out.push('\n');
    }
    out.push_str(&format!("insts {}\n", n.instances.len()));
    for inst in &n.instances {
        let cell_name = n.library.cell(inst.cell).name.as_str();
        let block = match inst.block {
            None => "-".to_string(),
            Some(b) => b.to_string(),
        };
        out.push_str(&format!(
            "i {} {} {} {} {}",
            escape(&inst.name),
            escape(cell_name),
            block,
            inst.output.index(),
            inst.inputs.len()
        ));
        for net in &inst.inputs {
            out.push_str(&format!(" {}", net.index()));
        }
        out.push('\n');
    }
    out.push_str(&format!("pis {}", n.inputs.len()));
    for net in &n.inputs {
        out.push_str(&format!(" {}", net.index()));
    }
    out.push('\n');
    out.push_str(&format!("pos {}\n", n.outputs.len()));
    for (name, net) in &n.outputs {
        out.push_str(&format!("o {} {}\n", escape(name), net.index()));
    }
    out
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
        let net_name = unescape(lines.tok(&mut toks, "net name")?).map_err(|e| lines.err(e))?;
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
        nets.push(Net { name: net_name.into_boxed_str(), driver, sinks });
        if net_index.insert(&nets, NetId(idx as u32)).is_err() {
            let name = nets[idx].name.to_string();
            return Err(CodecError::RepeatedNetName { line: lines.line_number(), name });
        }
    }

    let n_insts = lines.count("insts")?;
    let mut instances = Vec::with_capacity(n_insts);
    for _ in 0..n_insts {
        let mut toks = lines.tagged("i")?;
        let inst_name = unescape(lines.tok(&mut toks, "instance name")?).map_err(|e| lines.err(e))?;
        let cell_name = unescape(lines.tok(&mut toks, "cell name")?).map_err(|e| lines.err(e))?;
        let cell = library
            .find(&cell_name)
            .ok_or_else(|| CodecError::UnknownCell(cell_name.clone()))?;
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
            name: inst_name.into_boxed_str(),
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
        let po_name = unescape(lines.tok(&mut toks, "output name")?).map_err(|e| lines.err(e))?;
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
        assert_eq!(unescape(&escape("a b%c\nd\te")).unwrap(), "a b%c\nd\te");
        assert_eq!(unescape(&escape("plain_name[3]")).unwrap(), "plain_name[3]");
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
