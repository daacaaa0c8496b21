//! Struct-of-arrays netlist storage for the scale tier.
//!
//! [`Netlist`] is an array-of-structs graph: every instance and net owns its
//! own `String` name and its own `Vec` of pins, and a `HashMap` indexes nets
//! by name. That is the right shape for transformation passes but the wrong
//! one for holding 10⁵–10⁶ instances: per-object allocations, 24-byte `Vec`
//! headers on two-element pin lists, and a name hash map that dwarfs the
//! graph itself.
//!
//! [`SoaNetlist`] stores the same information as flat parallel `u32` arrays:
//! all names interned into one byte arena with offset tables, pin lists in
//! CSR form (one offsets array + one data array), drivers packed into a
//! single `u32` code, and no name index at all (it is rebuilt on conversion
//! back). Conversion is exact in both directions — [`SoaNetlist::to_netlist`]
//! of [`SoaNetlist::from_netlist`] reproduces every field, including sink
//! order — and [`SoaNetlist::heap_bytes`] / [`dense_heap_bytes`] measure both
//! representations so the scale bench can record the dense baseline bar the
//! SoA form must stay under.
//!
//! The text codec (`to_text` / `from_text`) mirrors the v1 netlist codec's
//! posture: line-oriented, percent-escaped, typed [`SoaCodecError`] on any
//! malformed input — truncation or corruption must never panic.

use crate::cell::{CellId, Library};
use crate::codec::{escape, unescape};
use crate::netlist::{BlockTable, InstId, Instance, Net, NetDriver, NetId, Netlist};
use std::collections::HashMap;
use std::sync::Arc;

/// Packed driver code: 0 = undriven, odd = primary input, even = instance.
const DRIVER_NONE: u32 = 0;

fn encode_driver(d: Option<NetDriver>) -> u32 {
    match d {
        None => DRIVER_NONE,
        Some(NetDriver::PrimaryInput(i)) => 2 * (i as u32) + 1,
        Some(NetDriver::Instance(id)) => 2 * (id.0) + 2,
    }
}

fn decode_driver(v: u32) -> Option<NetDriver> {
    match v {
        DRIVER_NONE => None,
        v if v % 2 == 1 => Some(NetDriver::PrimaryInput(((v - 1) / 2) as usize)),
        v => Some(NetDriver::Instance(InstId(v / 2 - 1))),
    }
}

/// Sentinel for "no hierarchy block".
const NO_BLOCK: u32 = u32::MAX;

/// A [`Netlist`] flattened into struct-of-arrays form: `u32` indices, CSR
/// pin lists, and one interned name arena. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct SoaNetlist {
    name: String,
    library: Arc<Library>,
    block_names: Vec<String>,
    /// All net, instance and output-port names, concatenated (in that order).
    names: Vec<u8>,
    /// End offset of each net name in `names`; name `i` starts at `off[i-1]`
    /// (or 0). Instance and output names chain on in the same arena.
    net_name_end: Vec<u32>,
    inst_name_end: Vec<u32>,
    out_name_end: Vec<u32>,
    // Nets.
    net_driver: Vec<u32>,
    net_sink_off: Vec<u32>,
    net_sink_inst: Vec<u32>,
    net_sink_pin: Vec<u32>,
    // Instances.
    inst_cell: Vec<u32>,
    inst_output: Vec<u32>,
    inst_block: Vec<u32>,
    inst_input_off: Vec<u32>,
    inst_input_net: Vec<u32>,
    // Ports.
    pi_net: Vec<u32>,
    po_net: Vec<u32>,
}

/// Errors from [`SoaNetlist::from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SoaCodecError {
    /// A line did not parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The library name is not one of the built-ins.
    UnknownLibrary(String),
    /// Cross-array indices are inconsistent (offsets not monotone, ids out
    /// of range, non-UTF-8 name slices).
    Inconsistent(String),
}

impl std::fmt::Display for SoaCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SoaCodecError::Parse { line, reason } => {
                write!(f, "soa codec: line {line}: {reason}")
            }
            SoaCodecError::UnknownLibrary(n) => write!(f, "soa codec: unknown library `{n}`"),
            SoaCodecError::Inconsistent(r) => write!(f, "soa codec: inconsistent data: {r}"),
        }
    }
}

impl std::error::Error for SoaCodecError {}

fn vec_bytes<T>(v: &[T]) -> usize {
    std::mem::size_of_val(v)
}

impl SoaNetlist {
    /// Flattens an AoS netlist. Exact: [`SoaNetlist::to_netlist`] inverts it.
    pub fn from_netlist(n: &Netlist) -> SoaNetlist {
        let mut names = Vec::new();
        let mut net_name_end = Vec::with_capacity(n.nets.len());
        let mut net_driver = Vec::with_capacity(n.nets.len());
        let mut net_sink_off = Vec::with_capacity(n.nets.len() + 1);
        let total_sinks: usize = n.nets.iter().map(|net| net.sinks.len()).sum();
        let mut net_sink_inst = Vec::with_capacity(total_sinks);
        let mut net_sink_pin = Vec::with_capacity(total_sinks);
        net_sink_off.push(0);
        for net in &n.nets {
            names.extend_from_slice(net.name.as_bytes());
            net_name_end.push(names.len() as u32);
            net_driver.push(encode_driver(net.driver));
            for &(inst, pin) in &net.sinks {
                net_sink_inst.push(inst.0);
                net_sink_pin.push(pin as u32);
            }
            net_sink_off.push(net_sink_inst.len() as u32);
        }
        let mut inst_name_end = Vec::with_capacity(n.instances.len());
        let mut inst_cell = Vec::with_capacity(n.instances.len());
        let mut inst_output = Vec::with_capacity(n.instances.len());
        let mut inst_block = Vec::with_capacity(n.instances.len());
        let mut inst_input_off = Vec::with_capacity(n.instances.len() + 1);
        let total_inputs: usize = n.instances.iter().map(|i| i.inputs.len()).sum();
        let mut inst_input_net = Vec::with_capacity(total_inputs);
        inst_input_off.push(0);
        for inst in &n.instances {
            names.extend_from_slice(inst.name.as_bytes());
            inst_name_end.push(names.len() as u32);
            inst_cell.push(inst.cell.0);
            inst_output.push(inst.output.0);
            inst_block.push(inst.block.unwrap_or(NO_BLOCK));
            for &i in &inst.inputs {
                inst_input_net.push(i.0);
            }
            inst_input_off.push(inst_input_net.len() as u32);
        }
        let mut out_name_end = Vec::with_capacity(n.outputs.len());
        let mut po_net = Vec::with_capacity(n.outputs.len());
        for (name, net) in &n.outputs {
            names.extend_from_slice(name.as_bytes());
            out_name_end.push(names.len() as u32);
            po_net.push(net.0);
        }
        SoaNetlist {
            name: n.name.clone(),
            library: n.library.clone(),
            block_names: n.block_names().to_vec(),
            names,
            net_name_end,
            inst_name_end,
            out_name_end,
            net_driver,
            net_sink_off,
            net_sink_inst,
            net_sink_pin,
            inst_cell,
            inst_output,
            inst_block,
            inst_input_off,
            inst_input_net,
            pi_net: n.inputs.iter().map(|i| i.0).collect(),
            po_net,
        }
    }

    /// Expands back to the AoS graph, rebuilding the name index.
    ///
    /// Infallible: every `SoaNetlist` is validated at construction
    /// ([`SoaNetlist::from_netlist`] by construction, [`SoaNetlist::from_text`]
    /// by explicit checks), so the lookups here cannot go out of bounds.
    pub fn to_netlist(&self) -> Netlist {
        let name_at = |start: u32, end: u32| -> String {
            String::from_utf8_lossy(&self.names[start as usize..end as usize]).into_owned()
        };
        let mut nets = Vec::with_capacity(self.net_driver.len());
        let mut net_by_name = HashMap::with_capacity(self.net_driver.len());
        let mut prev = 0u32;
        for (i, &end) in self.net_name_end.iter().enumerate() {
            let nm = name_at(prev, end);
            prev = end;
            let s = self.net_sink_off[i] as usize..self.net_sink_off[i + 1] as usize;
            let sinks = self.net_sink_inst[s.clone()]
                .iter()
                .zip(&self.net_sink_pin[s])
                .map(|(&inst, &pin)| (InstId(inst), pin as usize))
                .collect();
            net_by_name.insert(nm.clone(), NetId(i as u32));
            nets.push(Net { name: nm, driver: decode_driver(self.net_driver[i]), sinks });
        }
        let mut instances = Vec::with_capacity(self.inst_cell.len());
        for (i, &end) in self.inst_name_end.iter().enumerate() {
            let nm = name_at(prev, end);
            prev = end;
            let r = self.inst_input_off[i] as usize..self.inst_input_off[i + 1] as usize;
            instances.push(Instance {
                name: nm,
                cell: CellId(self.inst_cell[i]),
                inputs: self.inst_input_net[r].iter().map(|&n| NetId(n)).collect(),
                output: NetId(self.inst_output[i]),
                block: (self.inst_block[i] != NO_BLOCK).then_some(self.inst_block[i]),
            });
        }
        let mut outputs = Vec::with_capacity(self.po_net.len());
        for (i, &end) in self.out_name_end.iter().enumerate() {
            let nm = name_at(prev, end);
            prev = end;
            outputs.push((nm, NetId(self.po_net[i])));
        }
        Netlist {
            name: self.name.clone(),
            library: self.library.clone(),
            instances,
            nets,
            inputs: self.pi_net.iter().map(|&n| NetId(n)).collect(),
            outputs,
            blocks: BlockTable::from_names(self.block_names.clone()),
            net_by_name,
        }
    }

    /// Number of instances.
    pub fn num_instances(&self) -> usize {
        self.inst_cell.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.net_driver.len()
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Heap bytes this representation holds (arrays at element size ×
    /// length, which dominate; allocator slack is not modeled, matching the
    /// [`dense_heap_bytes`] convention so the two are comparable).
    pub fn heap_bytes(&self) -> usize {
        self.name.len()
            + self.block_names.iter().map(|b| b.len() + std::mem::size_of::<String>()).sum::<usize>()
            + self.names.capacity()
            + vec_bytes(&self.net_name_end)
            + vec_bytes(&self.inst_name_end)
            + vec_bytes(&self.out_name_end)
            + vec_bytes(&self.net_driver)
            + vec_bytes(&self.net_sink_off)
            + vec_bytes(&self.net_sink_inst)
            + vec_bytes(&self.net_sink_pin)
            + vec_bytes(&self.inst_cell)
            + vec_bytes(&self.inst_output)
            + vec_bytes(&self.inst_block)
            + vec_bytes(&self.inst_input_off)
            + vec_bytes(&self.inst_input_net)
            + vec_bytes(&self.pi_net)
            + vec_bytes(&self.po_net)
    }

    /// Serializes to the `eda-soa v1` text form.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("eda-soa v1\n");
        out.push_str(&format!("design {}\n", escape(&self.name)));
        out.push_str(&format!("library {}\n", escape(self.library.name())));
        out.push_str(&format!("blocks {}\n", self.block_names.len()));
        for b in &self.block_names {
            out.push_str(&format!("b {}\n", escape(b)));
        }
        // The arena is raw bytes; escape via the same percent scheme after a
        // lossy-free byte→char widening (names are UTF-8 by construction).
        out.push_str(&format!(
            "arena {}\n",
            escape(&String::from_utf8_lossy(&self.names))
        ));
        let section = |out: &mut String, tag: &str, v: &[u32]| {
            out.push_str(&format!("{tag} {}", v.len()));
            for x in v {
                out.push_str(&format!(" {x}"));
            }
            out.push('\n');
        };
        section(&mut out, "net_name_end", &self.net_name_end);
        section(&mut out, "inst_name_end", &self.inst_name_end);
        section(&mut out, "out_name_end", &self.out_name_end);
        section(&mut out, "net_driver", &self.net_driver);
        section(&mut out, "net_sink_off", &self.net_sink_off);
        section(&mut out, "net_sink_inst", &self.net_sink_inst);
        section(&mut out, "net_sink_pin", &self.net_sink_pin);
        section(&mut out, "inst_cell", &self.inst_cell);
        section(&mut out, "inst_output", &self.inst_output);
        section(&mut out, "inst_block", &self.inst_block);
        section(&mut out, "inst_input_off", &self.inst_input_off);
        section(&mut out, "inst_input_net", &self.inst_input_net);
        section(&mut out, "pi_net", &self.pi_net);
        section(&mut out, "po_net", &self.po_net);
        out
    }

    /// Deserializes the `eda-soa v1` text form.
    ///
    /// # Errors
    ///
    /// Any malformed, truncated or internally-inconsistent input returns a
    /// typed [`SoaCodecError`]; this function never panics on hostile bytes,
    /// and a successfully parsed value satisfies every invariant
    /// [`SoaNetlist::to_netlist`] relies on.
    pub fn from_text(text: &str) -> Result<SoaNetlist, SoaCodecError> {
        let mut num = 0usize;
        let mut lines = text.lines();
        let mut next = |what: &str| -> Result<&str, SoaCodecError> {
            num += 1;
            lines.next().ok_or(SoaCodecError::Parse {
                line: num,
                reason: format!("unexpected end of input, wanted {what}"),
            })
        };
        let perr = |line: usize, reason: String| SoaCodecError::Parse { line, reason };

        let header = next("header")?;
        if header != "eda-soa v1" {
            return Err(perr(1, format!("bad header {header:?}")));
        }
        let field = |line: &str, ln: usize, tag: &str| -> Result<String, SoaCodecError> {
            let rest = line
                .strip_prefix(tag)
                .and_then(|r| r.strip_prefix(' '))
                .ok_or_else(|| perr(ln, format!("expected `{tag} ...`, got {line:?}")))?;
            unescape(rest).map_err(|e| perr(ln, e))
        };
        let name = field(next("design")?, 2, "design")?;
        let lib_name = field(next("library")?, 3, "library")?;
        let library = match lib_name.as_str() {
            "generic" => Library::generic(),
            "nand_inv_2006" => Library::nand_inv_2006(),
            "controlled_polarity" => Library::controlled_polarity(),
            other => return Err(SoaCodecError::UnknownLibrary(other.to_string())),
        };
        let blocks_line = next("blocks")?;
        let n_blocks: usize = blocks_line
            .strip_prefix("blocks ")
            .and_then(|r| r.parse().ok())
            .ok_or_else(|| perr(4, format!("expected `blocks <count>`, got {blocks_line:?}")))?;
        let mut block_names = Vec::with_capacity(n_blocks.min(1 << 16));
        for i in 0..n_blocks {
            block_names.push(field(next("block name")?, 5 + i, "b")?);
        }
        let arena_ln = 5 + n_blocks;
        let names = field(next("arena")?, arena_ln, "arena")?.into_bytes();

        let mut section_ln = arena_ln;
        let mut section = |tag: &str| -> Result<Vec<u32>, SoaCodecError> {
            section_ln += 1;
            let ln = section_ln;
            let line = next(tag)?;
            let mut toks = line.split(' ');
            let got = toks.next().unwrap_or("");
            if got != tag {
                return Err(perr(ln, format!("expected section `{tag}`, got {got:?}")));
            }
            let count: usize = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| perr(ln, format!("bad count in section `{tag}`")))?;
            let mut v = Vec::with_capacity(count.min(1 << 20));
            for k in 0..count {
                let t = toks
                    .next()
                    .ok_or_else(|| perr(ln, format!("section `{tag}` truncated at {k}/{count}")))?;
                v.push(
                    t.parse()
                        .map_err(|_| perr(ln, format!("bad value {t:?} in section `{tag}`")))?,
                );
            }
            if toks.next().is_some() {
                return Err(perr(ln, format!("trailing tokens in section `{tag}`")));
            }
            Ok(v)
        };
        let soa = SoaNetlist {
            name,
            library,
            block_names,
            names,
            net_name_end: section("net_name_end")?,
            inst_name_end: section("inst_name_end")?,
            out_name_end: section("out_name_end")?,
            net_driver: section("net_driver")?,
            net_sink_off: section("net_sink_off")?,
            net_sink_inst: section("net_sink_inst")?,
            net_sink_pin: section("net_sink_pin")?,
            inst_cell: section("inst_cell")?,
            inst_output: section("inst_output")?,
            inst_block: section("inst_block")?,
            inst_input_off: section("inst_input_off")?,
            inst_input_net: section("inst_input_net")?,
            pi_net: section("pi_net")?,
            po_net: section("po_net")?,
        };
        soa.validate().map_err(SoaCodecError::Inconsistent)?;
        Ok(soa)
    }

    /// Cross-array consistency: offsets monotone and bounded, every id in
    /// range, name slices on UTF-8 boundaries. `Ok` means
    /// [`SoaNetlist::to_netlist`] cannot panic.
    fn validate(&self) -> Result<(), String> {
        let nets = self.net_driver.len();
        let insts = self.inst_cell.len();
        let arena = self.names.len() as u32;
        if self.net_name_end.len() != nets {
            return Err("net name/driver count mismatch".into());
        }
        if self.inst_name_end.len() != insts
            || self.inst_output.len() != insts
            || self.inst_block.len() != insts
        {
            return Err("instance array length mismatch".into());
        }
        if self.out_name_end.len() != self.po_net.len() {
            return Err("output name/net count mismatch".into());
        }
        let ends = self
            .net_name_end
            .iter()
            .chain(&self.inst_name_end)
            .chain(&self.out_name_end);
        let mut prev = 0u32;
        for &e in ends {
            if e < prev || e > arena {
                return Err("name offsets not monotone within arena".into());
            }
            if std::str::from_utf8(&self.names[prev as usize..e as usize]).is_err() {
                return Err("name slice is not UTF-8".into());
            }
            prev = e;
        }
        let csr = |off: &[u32], data_len: usize, items: usize, what: &str| -> Result<(), String> {
            if off.len() != items + 1 {
                return Err(format!("{what} offsets length mismatch"));
            }
            if off.first() != Some(&0) || *off.last().unwrap_or(&0) as usize != data_len {
                return Err(format!("{what} offsets do not span the data"));
            }
            if off.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("{what} offsets not monotone"));
            }
            Ok(())
        };
        if self.net_sink_inst.len() != self.net_sink_pin.len() {
            return Err("sink inst/pin length mismatch".into());
        }
        csr(&self.net_sink_off, self.net_sink_inst.len(), nets, "sink")?;
        csr(&self.inst_input_off, self.inst_input_net.len(), insts, "input")?;
        let net_ok = |v: &u32| (*v as usize) < nets;
        let inst_ok = |v: &u32| (*v as usize) < insts;
        if !self.net_sink_inst.iter().all(inst_ok) {
            return Err("sink instance out of range".into());
        }
        if !self.inst_input_net.iter().all(net_ok)
            || !self.inst_output.iter().all(net_ok)
            || !self.pi_net.iter().all(net_ok)
            || !self.po_net.iter().all(net_ok)
        {
            return Err("net id out of range".into());
        }
        if !self.inst_cell.iter().all(|&c| (c as usize) < self.library.len()) {
            return Err("cell id out of range".into());
        }
        for &d in &self.net_driver {
            if let Some(NetDriver::Instance(i)) = decode_driver(d) {
                if i.index() >= insts {
                    return Err("driver instance out of range".into());
                }
            }
        }
        Ok(())
    }
}

/// Measured heap bytes of the AoS [`Netlist`] representation — the dense
/// baseline bar the scale bench records against [`SoaNetlist::heap_bytes`].
///
/// Counts the instance/net tables at element size plus each object's owned
/// heap (name bytes, pin-list capacity) and the name index's table plus key
/// strings. Allocator slack is not modeled, so this is a lower bound on the
/// true footprint.
pub fn dense_heap_bytes(n: &Netlist) -> usize {
    let inst_bytes: usize = n
        .instances()
        .map(|(_, i)| {
            std::mem::size_of::<Instance>()
                + i.name().len()
                + std::mem::size_of_val(i.inputs())
        })
        .sum();
    let net_bytes: usize = n
        .nets()
        .map(|(_, net)| {
            std::mem::size_of::<Net>()
                + net.name().len()
                + std::mem::size_of_val(net.sinks())
        })
        .sum();
    // Name index: one (String, NetId) slot per net plus the key bytes (the
    // map duplicates every net name).
    let index_bytes: usize = n
        .nets()
        .map(|(_, net)| std::mem::size_of::<(String, NetId)>() + net.name().len())
        .sum();
    inst_bytes
        + net_bytes
        + index_bytes
        + std::mem::size_of_val(n.primary_inputs())
        + n.primary_outputs()
            .iter()
            .map(|(nm, _)| std::mem::size_of::<(String, NetId)>() + nm.len())
            .sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn roundtrip_through_soa_is_exact() {
        for design in [
            generate::switch_fabric(3, 3).unwrap(),
            generate::mesh_fabric(2, 2, 30, 4, 7).unwrap(),
            generate::hierarchical_design(3, 40, 5).unwrap(),
        ] {
            let soa = SoaNetlist::from_netlist(&design);
            let back = soa.to_netlist();
            assert_eq!(design.name, back.name);
            assert_eq!(design.instances, back.instances);
            assert_eq!(design.nets, back.nets);
            assert_eq!(design.inputs, back.inputs);
            assert_eq!(design.outputs, back.outputs);
            assert_eq!(design.block_names(), back.block_names());
            assert_eq!(design.net_by_name, back.net_by_name);
        }
    }

    #[test]
    fn text_roundtrip_is_a_fixed_point() {
        let design = generate::mesh_fabric(2, 3, 25, 3, 9).unwrap();
        let soa = SoaNetlist::from_netlist(&design);
        let text = soa.to_text();
        let back = SoaNetlist::from_text(&text).unwrap();
        assert_eq!(soa, back);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn soa_is_leaner_than_dense() {
        let design = generate::mesh_fabric(3, 3, 80, 4, 1).unwrap();
        let soa = SoaNetlist::from_netlist(&design);
        let dense = dense_heap_bytes(&design);
        let lean = soa.heap_bytes();
        assert!(
            lean * 2 < dense,
            "SoA ({lean} B) should be well under half of dense ({dense} B)"
        );
    }

    #[test]
    fn truncation_and_corruption_are_typed_errors() {
        let design = generate::switch_fabric(3, 2).unwrap();
        let text = SoaNetlist::from_netlist(&design).to_text();
        for cut in [1, text.len() / 4, text.len() / 2] {
            assert!(SoaNetlist::from_text(&text[..cut]).is_err(), "cut at {cut}");
        }
        // Truncation inside the final line may still parse (it only shortens
        // the last number); what it must never do is panic.
        let _ = SoaNetlist::from_text(&text[..text.len() - 2]);
        let corrupt = text.replace("net_driver", "net_magics");
        assert!(SoaNetlist::from_text(&corrupt).is_err());
        // An in-range index swapped out of range must be caught by validate.
        let hostile = text.replace("inst_output", "inst_outpu9");
        assert!(SoaNetlist::from_text(&hostile).is_err());
    }

    #[test]
    fn special_names_survive_the_arena() {
        let mut n = Netlist::new("weird names");
        let a = n.add_input("in put %1");
        let g = n.add_gate_fn("u \t odd", crate::cell::CellFunction::Inv, &[a]).unwrap();
        n.add_output("out\nnl", g);
        let soa = SoaNetlist::from_netlist(&n);
        let back = SoaNetlist::from_text(&soa.to_text()).unwrap().to_netlist();
        assert_eq!(n.nets, back.nets);
        assert_eq!(n.outputs, back.outputs);
    }
}
