//! Synthetic design generators.
//!
//! The panel's claims are made about classes of designs — arithmetic-heavy
//! datapaths, networking switch fabrics with 5× switching activity,
//! hierarchical SoCs, random control logic. Each generator here produces a
//! seeded, reproducible netlist with the structural statistics of its class.

use crate::cell::CellFunction;
use crate::netlist::{NetId, Netlist, NetlistError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`random_logic`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomLogicConfig {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of combinational gates.
    pub gates: usize,
    /// Fraction of gates followed by a register, in [0, 1].
    pub flop_fraction: f64,
    /// RNG seed; equal seeds give identical netlists.
    pub seed: u64,
}

impl Default for RandomLogicConfig {
    fn default() -> Self {
        RandomLogicConfig { inputs: 32, outputs: 16, gates: 500, flop_fraction: 0.1, seed: 1 }
    }
}

/// Generates a random combinational/sequential logic cloud.
///
/// Gates pick their function from a realistic mix and their fanins from
/// earlier signals with a locality bias, producing netlists whose
/// fanout/depth statistics resemble placed control logic.
///
/// # Errors
///
/// Propagates [`NetlistError`] from netlist construction (cannot occur for a
/// well-formed config; kept fallible per the builder API).
///
/// # Panics
///
/// Panics if `inputs == 0` or `outputs == 0`.
pub fn random_logic(cfg: RandomLogicConfig) -> Result<Netlist, NetlistError> {
    assert!(cfg.inputs > 0 && cfg.outputs > 0, "need at least one input and output");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut n = Netlist::new(format!("rand_{}g_s{}", cfg.gates, cfg.seed));
    let ck = n.add_input("clk");
    let mut signals: Vec<NetId> = (0..cfg.inputs).map(|i| n.add_input(format!("pi{i}"))).collect();

    let menu = [
        (CellFunction::Nand(2), 0.22),
        (CellFunction::Nor(2), 0.12),
        (CellFunction::And(2), 0.10),
        (CellFunction::Or(2), 0.08),
        (CellFunction::Inv, 0.12),
        (CellFunction::Xor2, 0.08),
        (CellFunction::Xnor2, 0.04),
        (CellFunction::Nand(3), 0.06),
        (CellFunction::Nor(3), 0.04),
        (CellFunction::Aoi21, 0.05),
        (CellFunction::Oai21, 0.04),
        (CellFunction::Mux2, 0.05),
    ];
    for g in 0..cfg.gates {
        let mut roll: f64 = rng.gen();
        let mut f = CellFunction::Nand(2);
        for &(cand, w) in &menu {
            if roll < w {
                f = cand;
                break;
            }
            roll -= w;
        }
        let arity = f.num_inputs();
        let mut ins = Vec::with_capacity(arity);
        for _ in 0..arity {
            // Locality bias: prefer recent signals.
            let span = signals.len();
            let back = (rng.gen::<f64>().powi(2) * span as f64) as usize;
            let idx = span - 1 - back.min(span - 1);
            ins.push(signals[idx]);
        }
        let mut out = n.add_gate_fn(format!("g{g}"), f, &ins)?;
        if rng.gen_bool(cfg.flop_fraction) {
            out = n.add_gate_fn(format!("ff{g}"), CellFunction::Dff, &[out, ck])?;
        }
        signals.push(out);
    }
    for o in 0..cfg.outputs {
        let idx = signals.len() - 1 - rng.gen_range(0..signals.len().min(cfg.outputs * 2));
        n.add_output(format!("po{o}"), signals[idx]);
    }
    Ok(n)
}

/// Generates a `width`-bit ripple-carry adder (`sum = a + b + cin`).
///
/// # Errors
///
/// Propagates [`NetlistError`] from construction.
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn ripple_carry_adder(width: usize) -> Result<Netlist, NetlistError> {
    assert!(width > 0, "adder width must be positive");
    let mut n = Netlist::new(format!("rca{width}"));
    let a: Vec<NetId> = (0..width).map(|i| n.add_input(format!("a{i}"))).collect();
    let b: Vec<NetId> = (0..width).map(|i| n.add_input(format!("b{i}"))).collect();
    let mut carry = n.add_input("cin");
    for i in 0..width {
        let axb = n.add_gate_fn(format!("x1_{i}"), CellFunction::Xor2, &[a[i], b[i]])?;
        let sum = n.add_gate_fn(format!("x2_{i}"), CellFunction::Xor2, &[axb, carry])?;
        let cy = n.add_gate_fn(format!("mj_{i}"), CellFunction::Maj3, &[a[i], b[i], carry])?;
        n.add_output(format!("sum{i}"), sum);
        carry = cy;
    }
    n.add_output("cout", carry);
    Ok(n)
}

/// Generates a `width × width` array multiplier.
///
/// # Errors
///
/// Propagates [`NetlistError`] from construction.
///
/// # Panics
///
/// Panics if `width < 2`.
pub fn array_multiplier(width: usize) -> Result<Netlist, NetlistError> {
    assert!(width >= 2, "multiplier width must be at least 2");
    let mut n = Netlist::new(format!("mul{width}"));
    let a: Vec<NetId> = (0..width).map(|i| n.add_input(format!("a{i}"))).collect();
    let b: Vec<NetId> = (0..width).map(|i| n.add_input(format!("b{i}"))).collect();
    // Partial products.
    let mut pp = vec![vec![None::<NetId>; width]; width];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            pp[i][j] = Some(n.add_gate_fn(format!("pp_{i}_{j}"), CellFunction::And(2), &[ai, bj])?);
        }
    }
    // Shift-and-add accumulation: after emitting output bit i, add the next
    // shifted partial-product row to the running upper bits.
    let zero = n.add_gate_fn("tie0", CellFunction::Const0, &[])?;
    let mut acc: Vec<NetId> = (0..width).map(|j| pp[0][j].unwrap()).collect();
    let mut acc_top: NetId = zero;
    n.add_output("p0", acc[0]);
    for (i, pp_row) in pp.iter().enumerate().skip(1) {
        // shifted = acc >> 1, with the previous carry-out as the new top bit.
        let mut shifted: Vec<NetId> = acc[1..].to_vec();
        shifted.push(acc_top);
        let row: Vec<NetId> = pp_row.iter().map(|p| p.unwrap()).collect();
        let mut carry: Option<NetId> = None;
        let mut sum = Vec::with_capacity(width);
        for j in 0..width {
            let (s, c) = match carry {
                None => {
                    let s = n.add_gate_fn(format!("ha_s_{i}_{j}"), CellFunction::Xor2, &[shifted[j], row[j]])?;
                    let c = n.add_gate_fn(format!("ha_c_{i}_{j}"), CellFunction::And(2), &[shifted[j], row[j]])?;
                    (s, c)
                }
                Some(cy) => {
                    let x = n.add_gate_fn(format!("fa_x_{i}_{j}"), CellFunction::Xor2, &[shifted[j], row[j]])?;
                    let s = n.add_gate_fn(format!("fa_s_{i}_{j}"), CellFunction::Xor2, &[x, cy])?;
                    let c = n.add_gate_fn(format!("fa_c_{i}_{j}"), CellFunction::Maj3, &[shifted[j], row[j], cy])?;
                    (s, c)
                }
            };
            carry = Some(c);
            sum.push(s);
        }
        acc = sum;
        acc_top = carry.unwrap();
        n.add_output(format!("p{i}"), acc[0]);
    }
    for (k, &a) in acc.iter().enumerate().skip(1) {
        n.add_output(format!("p{}", width - 1 + k), a);
    }
    n.add_output(format!("p{}", 2 * width - 1), acc_top);
    Ok(n)
}

/// Generates a balanced XOR parity tree over `width` inputs.
///
/// # Errors
///
/// Propagates [`NetlistError`] from construction.
///
/// # Panics
///
/// Panics if `width < 2`.
pub fn parity_tree(width: usize) -> Result<Netlist, NetlistError> {
    assert!(width >= 2, "parity width must be at least 2");
    let mut n = Netlist::new(format!("parity{width}"));
    let mut level: Vec<NetId> = (0..width).map(|i| n.add_input(format!("d{i}"))).collect();
    let mut g = 0;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                next.push(n.add_gate_fn(format!("x{g}"), CellFunction::Xor2, &[pair[0], pair[1]])?);
                g += 1;
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    n.add_output("parity", level[0]);
    Ok(n)
}

/// Generates a `width`-bit equality comparator.
///
/// # Errors
///
/// Propagates [`NetlistError`] from construction.
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn equality_comparator(width: usize) -> Result<Netlist, NetlistError> {
    assert!(width > 0, "comparator width must be positive");
    let mut n = Netlist::new(format!("eq{width}"));
    let a: Vec<NetId> = (0..width).map(|i| n.add_input(format!("a{i}"))).collect();
    let b: Vec<NetId> = (0..width).map(|i| n.add_input(format!("b{i}"))).collect();
    let mut eqs = Vec::with_capacity(width);
    for i in 0..width {
        eqs.push(n.add_gate_fn(format!("xn{i}"), CellFunction::Xnor2, &[a[i], b[i]])?);
    }
    let mut level = eqs;
    let mut g = 0;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                next.push(n.add_gate_fn(format!("an{g}"), CellFunction::And(2), &[pair[0], pair[1]])?);
                g += 1;
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    n.add_output("eq", level[0]);
    Ok(n)
}

/// Generates a networking-style crossbar switch fabric: `ports` input buses of
/// `width` bits, each output bus selected by per-output one-hot selects.
///
/// These netlists have the high fanout and high switching activity Rossi
/// describes for ASICs for networking ("switching activities in excess of
/// 5×").
///
/// # Errors
///
/// Propagates [`NetlistError`] from construction.
///
/// # Panics
///
/// Panics if `ports < 2` or `width == 0`.
pub fn switch_fabric(ports: usize, width: usize) -> Result<Netlist, NetlistError> {
    assert!(ports >= 2, "fabric needs at least 2 ports");
    assert!(width > 0, "bus width must be positive");
    let mut n = Netlist::new(format!("xbar{ports}x{width}"));
    let ck = n.add_input("clk");
    let data: Vec<Vec<NetId>> = (0..ports)
        .map(|p| (0..width).map(|b| n.add_input(format!("in_p{p}_b{b}"))).collect())
        .collect();
    let sels: Vec<Vec<NetId>> = (0..ports)
        .map(|o| (0..ports).map(|i| n.add_input(format!("sel_o{o}_i{i}"))).collect())
        .collect();
    for (o, sel_row) in sels.iter().enumerate() {
        for b in 0..width {
            // OR over (data AND select) terms, built as a tree.
            let mut terms = Vec::with_capacity(ports);
            for (i, bus) in data.iter().enumerate() {
                terms.push(n.add_gate_fn(
                    format!("and_o{o}_b{b}_i{i}"),
                    CellFunction::And(2),
                    &[bus[b], sel_row[i]],
                )?);
            }
            let mut level = terms;
            let mut g = 0;
            while level.len() > 1 {
                let mut next = Vec::with_capacity(level.len().div_ceil(2));
                for pair in level.chunks(2) {
                    if pair.len() == 2 {
                        next.push(n.add_gate_fn(
                            format!("or_o{o}_b{b}_{g}"),
                            CellFunction::Or(2),
                            &[pair[0], pair[1]],
                        )?);
                        g += 1;
                    } else {
                        next.push(pair[0]);
                    }
                }
                level = next;
            }
            let q = n.add_gate_fn(format!("ff_o{o}_b{b}"), CellFunction::Dff, &[level[0], ck])?;
            n.add_output(format!("out_p{o}_b{b}"), q);
        }
    }
    Ok(n)
}

/// Generates a hierarchical design: `blocks` blocks of random logic wired
/// through shared inter-block nets, with every instance labeled with its
/// block. Used for the panel's flat-vs-hierarchical implementation claim.
///
/// # Errors
///
/// Propagates [`NetlistError`] from construction.
///
/// # Panics
///
/// Panics if `blocks == 0` or `gates_per_block == 0`.
pub fn hierarchical_design(
    blocks: usize,
    gates_per_block: usize,
    seed: u64,
) -> Result<Netlist, NetlistError> {
    assert!(blocks > 0 && gates_per_block > 0, "need at least one block and gate");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut n = Netlist::new(format!("hier_{blocks}x{gates_per_block}"));
    let ck = n.add_input("clk");
    let shared: Vec<NetId> = (0..blocks * 4).map(|i| n.add_input(format!("bus{i}"))).collect();
    // Signals exported from the previous block, wiring blocks together the
    // way real SoC partitions are.
    let mut prev_exports: Vec<NetId> = Vec::new();
    for blk in 0..blocks {
        let bname = format!("blk{blk}");
        let mut signals: Vec<NetId> = shared.clone();
        signals.extend(prev_exports.iter().copied());
        for g in 0..gates_per_block {
            let f = match rng.gen_range(0..5) {
                0 => CellFunction::Nand(2),
                1 => CellFunction::Nor(2),
                2 => CellFunction::Xor2,
                3 => CellFunction::Inv,
                _ => CellFunction::And(2),
            };
            let arity = f.num_inputs();
            let ins: Vec<NetId> = (0..arity)
                .map(|_| {
                    let span = signals.len();
                    let back = (rng.gen::<f64>().powi(2) * span as f64) as usize;
                    signals[span - 1 - back.min(span - 1)]
                })
                .collect();
            let mut out = n.add_gate_fn(format!("{bname}_g{g}"), f, &ins)?;
            let inst = crate::netlist::InstId::from_index(n.num_instances() - 1);
            n.assign_block(inst, &bname);
            if rng.gen_bool(0.08) {
                out = n.add_gate_fn(format!("{bname}_ff{g}"), CellFunction::Dff, &[out, ck])?;
                let ff = crate::netlist::InstId::from_index(n.num_instances() - 1);
                n.assign_block(ff, &bname);
            }
            signals.push(out);
        }
        // Each block exports its last few signals as outputs and feeds them
        // forward to the next block.
        prev_exports = signals.iter().rev().take(4).copied().collect();
        for (k, &s) in signals.iter().rev().take(3).enumerate() {
            n.add_output(format!("{bname}_o{k}"), s);
        }
    }
    Ok(n)
}

/// Generates a `width`-bit synchronous binary counter with enable.
///
/// # Errors
///
/// Propagates [`NetlistError`] from construction.
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn counter(width: usize) -> Result<Netlist, NetlistError> {
    assert!(width > 0, "counter width must be positive");
    let mut n = Netlist::new(format!("counter{width}"));
    let ck = n.add_input("clk");
    let en = n.add_input("en");
    let lib = n.library().clone();
    let dff = lib.find_function(CellFunction::Dff).expect("generic library has DFF");
    let q_nets: Vec<NetId> = (0..width).map(|i| n.add_net(format!("q{i}"))).collect();
    // q' = q XOR carry_in ; carry chain = en & q0 & q1 & ...
    let mut carry = en;
    for (i, &q) in q_nets.iter().enumerate() {
        let d = n.add_gate_fn(format!("sum{i}"), CellFunction::Xor2, &[q, carry])?;
        n.add_gate_with_output(format!("ff{i}"), dff, &[d, ck], q)?;
        if i + 1 < width {
            carry = n.add_gate_fn(format!("cy{i}"), CellFunction::And(2), &[carry, q])?;
        }
    }
    for (i, &q) in q_nets.iter().enumerate() {
        n.add_output(format!("count{i}"), q);
    }
    Ok(n)
}

/// Generates a small `width`-bit ALU: op ∈ {ADD, AND, OR, XOR} selected by a
/// 2-bit opcode (op = `{op1, op0}`: 00 ADD, 01 AND, 10 OR, 11 XOR).
///
/// # Errors
///
/// Propagates [`NetlistError`] from construction.
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn alu(width: usize) -> Result<Netlist, NetlistError> {
    assert!(width > 0, "ALU width must be positive");
    let mut n = Netlist::new(format!("alu{width}"));
    let a: Vec<NetId> = (0..width).map(|i| n.add_input(format!("a{i}"))).collect();
    let b: Vec<NetId> = (0..width).map(|i| n.add_input(format!("b{i}"))).collect();
    let op0 = n.add_input("op0");
    let op1 = n.add_input("op1");
    // Adder chain.
    let mut carry: Option<NetId> = None;
    let mut sum = Vec::with_capacity(width);
    for i in 0..width {
        let axb = n.add_gate_fn(format!("ax{i}"), CellFunction::Xor2, &[a[i], b[i]])?;
        match carry {
            None => {
                sum.push(axb);
                carry = Some(n.add_gate_fn(format!("cy{i}"), CellFunction::And(2), &[a[i], b[i]])?);
            }
            Some(c) => {
                sum.push(n.add_gate_fn(format!("s{i}"), CellFunction::Xor2, &[axb, c])?);
                carry =
                    Some(n.add_gate_fn(format!("cy{i}"), CellFunction::Maj3, &[a[i], b[i], c])?);
            }
        }
    }
    for i in 0..width {
        let and_i = n.add_gate_fn(format!("and{i}"), CellFunction::And(2), &[a[i], b[i]])?;
        let or_i = n.add_gate_fn(format!("or{i}"), CellFunction::Or(2), &[a[i], b[i]])?;
        let xor_i = n.add_gate_fn(format!("xor{i}"), CellFunction::Xor2, &[a[i], b[i]])?;
        // 4:1 mux from two 2:1 muxes: op1 ? (op0 ? xor : or) : (op0 ? and : sum)
        let lo = n.add_gate_fn(format!("m0_{i}"), CellFunction::Mux2, &[sum[i], and_i, op0])?;
        let hi = n.add_gate_fn(format!("m1_{i}"), CellFunction::Mux2, &[or_i, xor_i, op0])?;
        let y = n.add_gate_fn(format!("m2_{i}"), CellFunction::Mux2, &[lo, hi, op1])?;
        n.add_output(format!("y{i}"), y);
    }
    n.add_output("carry_out", carry.expect("width > 0 produces a carry"));
    Ok(n)
}

/// Hard cap on the instance count any scale-tier generator will emit.
///
/// [`mesh_fabric`] clamps its per-tile gate budget so the total instance
/// count never exceeds this, no matter what parameters are requested — the
/// same defensive posture as the daemon's `DesignSpec` size caps.
pub const MAX_SCALE_INSTANCES: usize = 1_500_000;

/// One pipeline register every this many gates in a mesh tile.
const MESH_FLOP_PERIOD: usize = 12;

/// Exact instance count [`mesh_fabric`] will produce for these parameters
/// (before cap clamping): per tile one clock buffer, `tile_gates`
/// combinational gates and `tile_gates / 12` pipeline flops, plus one clock
/// buffer per row and one root clock buffer.
pub fn mesh_instance_count(rows: usize, cols: usize, tile_gates: usize) -> usize {
    rows * cols * (1 + tile_gates + tile_gates / MESH_FLOP_PERIOD) + rows + 1
}

/// Generates a scale-tier mesh fabric: a `rows × cols` grid of logic tiles,
/// each a seeded random-logic cloud reading `width`-bit export buses from its
/// west and north neighbours (edge tiles read primary inputs), exporting its
/// last `width` signals east/south, and registering every 12th gate off a
/// buffered clock spine (root → row → tile), so no net's fanout grows with
/// the design size. Instances carry `t{r}_{c}` block labels.
///
/// The grammar is DAG-legal by construction — tiles are emitted in row-major
/// order and only ever read signals that already exist — and the instance
/// count is the exact, deterministic [`mesh_instance_count`], clamped to
/// `cap` ([`MAX_SCALE_INSTANCES`] for [`mesh_fabric`]) by shrinking the
/// per-tile gate budget.
///
/// # Errors
///
/// Propagates [`NetlistError`] from construction.
///
/// # Panics
///
/// Panics if `rows`, `cols`, `tile_gates` or `width` is zero, or if `cap`
/// cannot fit even one gate per tile.
pub fn mesh_fabric_with_cap(
    rows: usize,
    cols: usize,
    tile_gates: usize,
    width: usize,
    seed: u64,
    cap: usize,
) -> Result<Netlist, NetlistError> {
    assert!(rows > 0 && cols > 0, "mesh needs at least one tile");
    assert!(tile_gates > 0 && width > 0, "tile gate budget and bus width must be positive");
    let mut tile_gates = tile_gates;
    if mesh_instance_count(rows, cols, tile_gates) > cap {
        // Shrink the per-tile budget to the largest count under the cap.
        let tiles = rows * cols;
        let budget = cap
            .checked_sub(rows + 1 + tiles)
            .unwrap_or_else(|| panic!("cap {cap} cannot fit a {rows}x{cols} mesh"));
        // Flop-overhead scaling can round a tight-but-sufficient budget down
        // to zero; one gate per tile is always the floor we try.
        tile_gates = ((budget / tiles) * MESH_FLOP_PERIOD / (MESH_FLOP_PERIOD + 1)).max(1);
        while tile_gates > 1 && mesh_instance_count(rows, cols, tile_gates) > cap {
            tile_gates -= 1;
        }
        assert!(
            tile_gates > 0 && mesh_instance_count(rows, cols, tile_gates) <= cap,
            "cap {cap} cannot fit a {rows}x{cols} mesh"
        );
    }
    let width = width.min(tile_gates);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut n = Netlist::new(format!("mesh{rows}x{cols}t{tile_gates}w{width}s{seed}"));
    let ck_pi = n.add_input("clk");
    // North-edge and west-edge import buses are primary inputs.
    let north_pi: Vec<Vec<NetId>> = (0..cols)
        .map(|c| (0..width).map(|b| n.add_input(format!("ni_c{c}_b{b}"))).collect())
        .collect();
    let west_pi: Vec<Vec<NetId>> = (0..rows)
        .map(|r| (0..width).map(|b| n.add_input(format!("wi_r{r}_b{b}"))).collect())
        .collect();
    // Clock spine: root buffer -> one buffer per row -> one buffer per tile,
    // so clock fanout is O(rows + cols + gates/tile), never O(flops).
    let ck_root = n.add_gate_fn("ckbuf_root", CellFunction::Buf, &[ck_pi])?;
    let row_ck: Vec<NetId> = (0..rows)
        .map(|r| n.add_gate_fn(format!("ckbuf_r{r}"), CellFunction::Buf, &[ck_root]))
        .collect::<Result<_, _>>()?;

    let mut exports: Vec<Vec<NetId>> = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let bname = format!("t{r}_{c}");
            let tile_ck = n.add_gate_fn(format!("{bname}_ck"), CellFunction::Buf, &[row_ck[r]])?;
            n.assign_block(crate::netlist::InstId::from_index(n.num_instances() - 1), &bname);
            let mut signals: Vec<NetId> = Vec::with_capacity(2 * width + tile_gates);
            signals.extend_from_slice(if c == 0 { &west_pi[r] } else { &exports[r * cols + c - 1] });
            signals.extend_from_slice(if r == 0 { &north_pi[c] } else { &exports[(r - 1) * cols + c] });
            for g in 0..tile_gates {
                let f = match rng.gen_range(0..5) {
                    0 => CellFunction::Nand(2),
                    1 => CellFunction::Nor(2),
                    2 => CellFunction::Xor2,
                    3 => CellFunction::Inv,
                    _ => CellFunction::And(2),
                };
                let arity = f.num_inputs();
                let ins: Vec<NetId> = (0..arity)
                    .map(|_| {
                        let span = signals.len();
                        let back = (rng.gen::<f64>().powi(2) * span as f64) as usize;
                        signals[span - 1 - back.min(span - 1)]
                    })
                    .collect();
                let mut out = n.add_gate_fn(format!("{bname}_g{g}"), f, &ins)?;
                n.assign_block(crate::netlist::InstId::from_index(n.num_instances() - 1), &bname);
                if (g + 1) % MESH_FLOP_PERIOD == 0 {
                    out = n.add_gate_fn(format!("{bname}_ff{g}"), CellFunction::Dff, &[out, tile_ck])?;
                    n.assign_block(crate::netlist::InstId::from_index(n.num_instances() - 1), &bname);
                }
                signals.push(out);
            }
            exports.push(signals[signals.len() - width..].to_vec());
        }
    }
    // South and east edge exports become primary outputs.
    for c in 0..cols {
        for (b, &s) in exports[(rows - 1) * cols + c].iter().enumerate() {
            n.add_output(format!("so_c{c}_b{b}"), s);
        }
    }
    for r in 0..rows {
        for (b, &s) in exports[r * cols + cols - 1].iter().enumerate() {
            n.add_output(format!("eo_r{r}_b{b}"), s);
        }
    }
    Ok(n)
}

/// [`mesh_fabric_with_cap`] under the default [`MAX_SCALE_INSTANCES`] cap.
///
/// # Errors
///
/// Propagates [`NetlistError`] from construction.
pub fn mesh_fabric(
    rows: usize,
    cols: usize,
    tile_gates: usize,
    width: usize,
    seed: u64,
) -> Result<Netlist, NetlistError> {
    mesh_fabric_with_cap(rows, cols, tile_gates, width, seed, MAX_SCALE_INSTANCES)
}

/// Sizes a [`mesh_fabric`] to approximately `target_instances` (within a few
/// percent for targets ≥ 10⁴) and generates it: the scale tier's front door.
/// The target is itself clamped to [`MAX_SCALE_INSTANCES`].
///
/// # Errors
///
/// Propagates [`NetlistError`] from construction.
///
/// # Panics
///
/// Panics if `target_instances < 100`.
pub fn scale_mesh(target_instances: usize, seed: u64) -> Result<Netlist, NetlistError> {
    assert!(target_instances >= 100, "scale tier starts at 100 instances");
    let target = target_instances.min(MAX_SCALE_INSTANCES);
    // ~100 instances per tile: big enough to dominate the spine overhead,
    // small enough that the mesh has real 2-D extent and wirelength stays
    // tile-local (a placer that recovers the lattice sees mostly short
    // nets, which is what keeps routing demand sublinear in the die span).
    let tiles_needed = (target / 100).max(1);
    let side = (tiles_needed as f64).sqrt().ceil() as usize;
    let tiles = side * side;
    let per_tile = (target / tiles).saturating_sub(1).max(1);
    let tile_gates = (per_tile * MESH_FLOP_PERIOD / (MESH_FLOP_PERIOD + 1)).max(1);
    mesh_fabric(side, side, tile_gates, 8, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_logic_is_deterministic() {
        let a = random_logic(RandomLogicConfig { seed: 7, ..Default::default() }).unwrap();
        let b = random_logic(RandomLogicConfig { seed: 7, ..Default::default() }).unwrap();
        assert_eq!(a.num_instances(), b.num_instances());
        let (oa, _) = a.simulate64(&vec![0xDEAD_BEEF; a.primary_inputs().len()], &[]);
        let (ob, _) = b.simulate64(&vec![0xDEAD_BEEF; b.primary_inputs().len()], &[]);
        assert_eq!(oa, ob);
        // Same gate budget across seeds, up to the stochastic flop draws
        // (gen_bool per gate makes the exact count seed-dependent).
        let c = random_logic(RandomLogicConfig { seed: 8, ..Default::default() }).unwrap();
        let diff = c.num_instances().abs_diff(a.num_instances());
        assert!(diff * 50 <= a.num_instances(), "budgets diverge: {diff}");
    }

    #[test]
    fn random_logic_validates() {
        for seed in 0..4 {
            let n = random_logic(RandomLogicConfig { gates: 300, seed, ..Default::default() }).unwrap();
            n.validate().unwrap();
            assert!(n.num_instances() >= 300);
        }
    }

    #[test]
    fn adder_adds() {
        let n = ripple_carry_adder(8).unwrap();
        n.validate().unwrap();
        for (a, b, cin) in [(3u32, 5u32, 0u32), (255, 1, 0), (100, 155, 1), (0, 0, 1)] {
            let mut ins = Vec::new();
            for i in 0..8 {
                ins.push((a >> i) & 1 == 1);
            }
            for i in 0..8 {
                ins.push((b >> i) & 1 == 1);
            }
            ins.push(cin == 1);
            let (outs, _) = n.simulate(&ins, &[]);
            let mut got = 0u32;
            for (i, &o) in outs.iter().enumerate() {
                got |= (o as u32) << i;
            }
            assert_eq!(got, a + b + cin, "{a}+{b}+{cin}");
        }
    }

    #[test]
    fn multiplier_multiplies() {
        let n = array_multiplier(4).unwrap();
        n.validate().unwrap();
        for a in 0u32..16 {
            for b in 0u32..16 {
                let mut ins = Vec::new();
                for i in 0..4 {
                    ins.push((a >> i) & 1 == 1);
                }
                for i in 0..4 {
                    ins.push((b >> i) & 1 == 1);
                }
                let (outs, _) = n.simulate(&ins, &[]);
                let mut got = 0u32;
                for (i, &o) in outs.iter().enumerate() {
                    got |= (o as u32) << i;
                }
                assert_eq!(got, a * b, "{a}*{b} gave {got}");
            }
        }
    }

    #[test]
    fn parity_tree_is_parity() {
        let n = parity_tree(16).unwrap();
        n.validate().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let ins: Vec<bool> = (0..16).map(|_| rng.gen_bool(0.5)).collect();
            let (outs, _) = n.simulate(&ins, &[]);
            assert_eq!(outs[0], ins.iter().filter(|&&b| b).count() % 2 == 1);
        }
    }

    #[test]
    fn comparator_compares() {
        let n = equality_comparator(6).unwrap();
        n.validate().unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let a: Vec<bool> = (0..6).map(|_| rng.gen_bool(0.5)).collect();
            let equal = rng.gen_bool(0.5);
            let b: Vec<bool> = if equal {
                a.clone()
            } else {
                let mut b = a.clone();
                let i = rng.gen_range(0..6);
                b[i] = !b[i];
                b
            };
            let ins: Vec<bool> = a.iter().chain(b.iter()).copied().collect();
            let (outs, _) = n.simulate(&ins, &[]);
            assert_eq!(outs[0], equal);
        }
    }

    #[test]
    fn switch_fabric_routes() {
        let n = switch_fabric(4, 2).unwrap();
        n.validate().unwrap();
        // Select input 2 on output 0, input 0 on others; drive distinct data.
        let mut ins = vec![false]; // clk
        // data: port p bit b = (p == 2)
        for p in 0..4 {
            for _b in 0..2 {
                ins.push(p == 2);
            }
        }
        // sel: output 0 takes input 2.
        for o in 0..4 {
            for i in 0..4 {
                ins.push(o == 0 && i == 2);
            }
        }
        let (_, state) = n.simulate(&ins, &[]);
        // Flops are created per (output, bit) in order; out 0 bits captured 1.
        assert!(state[0] && state[1], "output 0 must capture input 2's data");
        assert!(!state[2] && !state[3], "output 1 selected nothing");
    }

    #[test]
    fn hierarchical_design_has_blocks() {
        let n = hierarchical_design(4, 100, 9).unwrap();
        n.validate().unwrap();
        assert_eq!(n.block_names().len(), 4);
        let labeled = n.instances().filter(|(_, i)| i.block().is_some()).count();
        assert_eq!(labeled, n.num_instances(), "every instance is labeled");
    }

    #[test]
    fn counter_counts() {
        let n = counter(4).unwrap();
        n.validate().unwrap();
        let mut state = vec![0u64; 4];
        for expect in 1u64..=10 {
            let (_, next) = n.simulate64(&[0, 1], &state); // en = 1
            state = next;
            let value: u64 = state.iter().enumerate().map(|(i, &b)| (b & 1) << i).sum();
            assert_eq!(value, expect % 16, "count after {expect} ticks");
        }
        // Disabled: holds.
        let (_, held) = n.simulate64(&[0, 0], &state);
        assert_eq!(held, state);
    }

    #[test]
    fn alu_implements_all_ops() {
        let n = alu(4).unwrap();
        n.validate().unwrap();
        for a in 0u32..16 {
            for b in [0u32, 3, 9, 15] {
                for (op, expect) in [
                    (0u32, (a + b) & 0xF),
                    (1, a & b),
                    (2, a | b),
                    (3, a ^ b),
                ] {
                    let mut ins = Vec::new();
                    for i in 0..4 {
                        ins.push((a >> i) & 1 == 1);
                    }
                    for i in 0..4 {
                        ins.push((b >> i) & 1 == 1);
                    }
                    ins.push(op & 1 == 1);
                    ins.push(op >> 1 & 1 == 1);
                    let (outs, _) = n.simulate(&ins, &[]);
                    let got: u32 = outs[..4]
                        .iter()
                        .enumerate()
                        .map(|(i, &o)| (o as u32) << i)
                        .sum();
                    assert_eq!(got, expect, "a={a} b={b} op={op}");
                    if op == 0 {
                        assert_eq!(outs[4], (a + b) > 15, "carry for {a}+{b}");
                    }
                }
            }
        }
    }

    #[test]
    fn mesh_fabric_count_is_exact_and_validates() {
        let n = mesh_fabric(3, 4, 50, 4, 11).unwrap();
        n.validate().unwrap();
        assert_eq!(n.num_instances(), mesh_instance_count(3, 4, 50));
        assert_eq!(n.block_names().len(), 12, "one block per tile");
        let labeled = n.instances().filter(|(_, i)| i.block().is_some()).count();
        // Everything but the root and per-row clock buffers is tile-labeled.
        assert_eq!(labeled, n.num_instances() - 4);
    }

    #[test]
    fn mesh_fabric_is_deterministic() {
        let a = mesh_fabric(2, 3, 40, 4, 5).unwrap();
        let b = mesh_fabric(2, 3, 40, 4, 5).unwrap();
        assert_eq!(a.num_instances(), b.num_instances());
        let ins = vec![0xFACE_CAFE_u64; a.primary_inputs().len()];
        assert_eq!(a.simulate64(&ins, &[]), b.simulate64(&ins, &[]));
        let c = mesh_fabric(2, 3, 40, 4, 6).unwrap();
        assert_eq!(c.num_instances(), a.num_instances(), "count is seed-independent");
    }

    #[test]
    fn mesh_fabric_respects_cap() {
        let n = mesh_fabric_with_cap(3, 3, 10_000, 4, 1, 500).unwrap();
        assert!(n.num_instances() <= 500, "got {}", n.num_instances());
        n.validate().unwrap();
    }

    #[test]
    fn mesh_fabric_fanout_does_not_scale_with_flop_count() {
        // The buffered clock spine keeps max fanout O(cols + gates/tile),
        // never O(total flops).
        let n = mesh_fabric(4, 4, 60, 4, 2).unwrap();
        let max_fanout = n.nets().map(|(_, net)| net.fanout()).max().unwrap();
        let flops = n.flops().len();
        assert!(flops > 4 * 4 * 4, "mesh has pipeline flops");
        assert!(max_fanout < flops, "clock must be buffered, not flat");
        assert!(max_fanout <= 64, "fanout stays tile-local, got {max_fanout}");
    }

    #[test]
    fn scale_mesh_hits_its_target() {
        for target in [10_000usize, 25_000] {
            let n = scale_mesh(target, 3).unwrap();
            let got = n.num_instances();
            let err = got.abs_diff(target) as f64 / target as f64;
            assert!(err < 0.10, "target {target} got {got} ({err:.2})");
        }
        // Targets beyond the cap are clamped, not honoured.
        let side = ((MAX_SCALE_INSTANCES / 800) as f64).sqrt().ceil() as usize;
        assert!(mesh_instance_count(side, side, 800) <= 2 * MAX_SCALE_INSTANCES);
    }

    #[test]
    fn fabric_has_high_fanout_structure() {
        let n = switch_fabric(8, 4).unwrap();
        let max_fanout = n.nets().map(|(_, net)| net.fanout()).max().unwrap();
        assert!(max_fanout >= 4, "data inputs fan out to every output mux");
    }
}
