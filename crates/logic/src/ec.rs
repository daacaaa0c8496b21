//! Combinational equivalence checking.
//!
//! Both netlists are read through their [`CombView`]s: the shared input
//! space is `a`'s primary inputs plus its flop outputs, matched by position,
//! and the observables are each view's outputs — the primary outputs and the
//! flop D functions. A scan flop's scan-enable is a primary input like any
//! other, which the caller ties. The checker builds BDDs of the observables
//! and compares them canonically; where a BDD blows past its node budget, it
//! enumerates the same observables by bit-parallel simulation for up to 20
//! inputs, and reports [`EcVerdict::Inconclusive`] beyond that.
//!
//! This is the formal backbone for the panel's "consistently verified
//! throughout the design flow": every transformation in the workspace
//! (synthesis, mapping, clock gating, scan, power intent) can be checked
//! against its input netlist.

use crate::bdd::{BddError, BddManager, BddRef};
use eda_netlist::{CellFunction, CombView, Netlist, NetlistError};

/// The checker's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcVerdict {
    /// Formally equivalent.
    Equivalent,
    /// A concrete distinguishing assignment over the shared inputs.
    Counterexample(Vec<bool>),
    /// Budget exhausted and the input space is too large to enumerate.
    Inconclusive,
}

/// Errors from equivalence checking.
#[derive(Debug, Clone, PartialEq)]
pub enum EcError {
    /// The designs have different interface sizes.
    InterfaceMismatch(String),
    /// One of the netlists is invalid.
    Netlist(NetlistError),
}

impl std::fmt::Display for EcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EcError::InterfaceMismatch(m) => write!(f, "interface mismatch: {m}"),
            EcError::Netlist(e) => write!(f, "invalid netlist: {e}"),
        }
    }
}

impl std::error::Error for EcError {}

impl From<NetlistError> for EcError {
    fn from(e: NetlistError) -> Self {
        EcError::Netlist(e)
    }
}

/// Where one input of a netlist's [`CombView`] takes its value from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Tied to a constant.
    Tie(bool),
    /// Shared variable `v`.
    Var(usize),
}

/// Resolves every input of `view`: primary input `i` is tied when a tie list
/// names it (`tie_high` wins over `tie_low`), else it is shared variable `i`;
/// flop `k`'s output is variable `shared + k`.
///
/// # Errors
///
/// [`EcError::InterfaceMismatch`] for an untied primary input beyond the
/// shared space.
fn sources(
    netlist: &Netlist,
    view: &CombView,
    shared: usize,
    tie_high: &[usize],
    tie_low: &[usize],
) -> Result<Vec<Source>, EcError> {
    let pis = netlist.primary_inputs().len();
    (0..view.inputs.len())
        .map(|i| {
            if i >= pis {
                Ok(Source::Var(shared + i - pis))
            } else if tie_high.contains(&i) {
                Ok(Source::Tie(true))
            } else if tie_low.contains(&i) {
                Ok(Source::Tie(false))
            } else if i < shared {
                Ok(Source::Var(i))
            } else {
                Err(EcError::InterfaceMismatch(format!(
                    "primary input {i} ({}) is beyond the shared space and not tied",
                    netlist.net(view.inputs[i]).name()
                )))
            }
        })
        .collect()
}

/// Builds BDDs for every output of `view` (primary outputs, then flop D
/// functions), its inputs driven as `sources` resolves them.
fn build_functions(
    m: &mut BddManager,
    netlist: &Netlist,
    view: &CombView,
    sources: &[Source],
) -> Result<Vec<BddRef>, BddError> {
    let lib = netlist.library();
    let mut net_fn = vec![BddRef::ZERO; netlist.num_nets()];
    for (&net, &source) in view.inputs.iter().zip(sources) {
        net_fn[net.index()] = match source {
            Source::Tie(true) => BddRef::ONE,
            Source::Tie(false) => BddRef::ZERO,
            Source::Var(v) => m.var(v as u32)?,
        };
    }
    let mut ins: Vec<BddRef> = Vec::new();
    for &id in view.order() {
        let inst = netlist.instance(id);
        ins.clear();
        ins.extend(inst.inputs().iter().map(|n| net_fn[n.index()]));
        net_fn[inst.output().index()] = eval_cell(m, lib.cell(inst.cell()).function, &ins)?;
    }
    Ok(view.outputs.iter().map(|n| net_fn[n.index()]).collect())
}

fn eval_cell(m: &mut BddManager, f: CellFunction, ins: &[BddRef]) -> Result<BddRef, BddError> {
    use CellFunction as CF;
    Ok(match f {
        CF::Const0 | CF::Decap => BddRef::ZERO,
        CF::Const1 => BddRef::ONE,
        CF::Buf | CF::LevelShifter => ins[0],
        CF::Inv => m.not(ins[0])?,
        CF::And(_) => {
            let mut acc = BddRef::ONE;
            for &i in ins {
                acc = m.and(acc, i)?;
            }
            acc
        }
        CF::Nand(_) => {
            let mut acc = BddRef::ONE;
            for &i in ins {
                acc = m.and(acc, i)?;
            }
            m.not(acc)?
        }
        CF::Or(_) => {
            let mut acc = BddRef::ZERO;
            for &i in ins {
                acc = m.or(acc, i)?;
            }
            acc
        }
        CF::Nor(_) => {
            let mut acc = BddRef::ZERO;
            for &i in ins {
                acc = m.or(acc, i)?;
            }
            m.not(acc)?
        }
        CF::Xor2 => m.xor(ins[0], ins[1])?,
        CF::Xnor2 => {
            let x = m.xor(ins[0], ins[1])?;
            m.not(x)?
        }
        CF::Aoi21 => {
            let ab = m.and(ins[0], ins[1])?;
            let o = m.or(ab, ins[2])?;
            m.not(o)?
        }
        CF::Oai21 => {
            let ab = m.or(ins[0], ins[1])?;
            let a = m.and(ab, ins[2])?;
            m.not(a)?
        }
        CF::Mux2 => m.ite(ins[2], ins[1], ins[0])?,
        CF::Maj3 => {
            let ab = m.and(ins[0], ins[1])?;
            let bc = m.and(ins[1], ins[2])?;
            let ac = m.and(ins[0], ins[2])?;
            let t = m.or(ab, bc)?;
            m.or(t, ac)?
        }
        CF::ClockGate | CF::Isolation => m.and(ins[0], ins[1])?,
        CF::Dff | CF::ScanDff => unreachable!("sequential cells handled by caller"),
    })
}

/// Checks combinational equivalence of two netlists.
///
/// The shared input space is `a`'s primary inputs plus its flops; `b` may
/// have extra primary inputs provided every extra position appears in
/// `b_tie_high`/`b_tie_low` (enables/scan pins added by transformations), and
/// a tie inside the shared range pins that input of `b` alone. Extra primary
/// *outputs* of `b` (e.g. scan-out) are ignored; the flop counts must match.
///
/// # Errors
///
/// Returns [`EcError::InterfaceMismatch`] when the interfaces cannot be
/// aligned, or a netlist validation error.
pub fn check_equivalence(
    a: &Netlist,
    b: &Netlist,
    b_tie_high: &[usize],
    b_tie_low: &[usize],
    node_limit: usize,
) -> Result<EcVerdict, EcError> {
    let shared = a.primary_inputs().len();
    let a_flops = a.flops().len();
    if b.flops().len() != a_flops {
        return Err(EcError::InterfaceMismatch(format!(
            "flop counts differ: {} vs {}",
            a_flops,
            b.flops().len()
        )));
    }
    if b.primary_outputs().len() < a.primary_outputs().len() {
        return Err(EcError::InterfaceMismatch("b has fewer outputs than a".into()));
    }
    let (va, vb) = (CombView::new(a)?, CombView::new(b)?);
    let sa = sources(a, &va, shared, &[], &[])?;
    let sb = sources(b, &vb, shared, b_tie_high, b_tie_low)?;
    // a's observable `i` pairs with b's `pair(i)`: the primary outputs by
    // position, then the flop D functions, which sit after all of b's
    // primary outputs (extra b outputs sit after a's per construction order).
    let checks = a.primary_outputs().len();
    let b_outputs = b.primary_outputs().len();
    let pair = |i: usize| if i < checks { i } else { b_outputs + (i - checks) };

    let mut m = BddManager::new(node_limit);
    let formal = (|| {
        let fa = build_functions(&mut m, a, &va, &sa)?;
        let fb = build_functions(&mut m, b, &vb, &sb)?;
        for (i, &x) in fa.iter().enumerate() {
            let y = fb[pair(i)];
            if x != y {
                let diff = m.xor(x, y)?;
                if let Some(cex) = m.satisfy(diff, va.inputs.len()) {
                    return Ok(EcVerdict::Counterexample(cex));
                }
            }
        }
        Ok(EcVerdict::Equivalent)
    })();
    Ok(formal.unwrap_or_else(|_: BddError| simulate_fallback(a, b, (&va, &sa), (&vb, &sb), pair)))
}

/// Exhaustive simulation for small input spaces (≤ 20 shared variables):
/// each view evaluates 64 assignments per call, and the observables compare
/// pairwise as the BDD path compares them.
fn simulate_fallback(
    a: &Netlist,
    b: &Netlist,
    (va, sa): (&CombView, &[Source]),
    (vb, sb): (&CombView, &[Source]),
    pair: impl Fn(usize) -> usize,
) -> EcVerdict {
    let vars = va.inputs.len();
    if vars > 20 {
        return EcVerdict::Inconclusive;
    }
    let total = 1usize << vars;
    let lanes_of = |sources: &[Source], var_lanes: &[u64]| -> Vec<u64> {
        sources
            .iter()
            .map(|&s| match s {
                Source::Tie(t) => if t { !0 } else { 0 },
                Source::Var(v) => var_lanes[v],
            })
            .collect()
    };
    for base in (0..total).step_by(64) {
        // Pack 64 consecutive assignments into lanes.
        let lanes = 64.min(total - base);
        let var_lanes: Vec<u64> = (0..vars)
            .map(|v| (0..lanes).filter(|&lane| (base + lane) >> v & 1 == 1).fold(0, |w, lane| w | 1 << lane))
            .collect();
        let oa = va.eval64(a, &lanes_of(sa, &var_lanes), None);
        let ob = vb.eval64(b, &lanes_of(sb, &var_lanes), None);
        let live = if lanes == 64 { !0 } else { (1u64 << lanes) - 1 };
        let mismatch = oa.iter().enumerate().fold(0u64, |acc, (i, &x)| acc | (x ^ ob[pair(i)])) & live;
        if mismatch != 0 {
            let bits = base + mismatch.trailing_zeros() as usize;
            return EcVerdict::Counterexample((0..vars).map(|v| bits >> v & 1 == 1).collect());
        }
    }
    EcVerdict::Equivalent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize, SynthesisEffort};
    use eda_netlist::{generate, Library};

    const LIMIT: usize = 1 << 20;

    #[test]
    fn synthesis_formally_verified() {
        let d = generate::ripple_carry_adder(8).unwrap();
        let adv = synthesize(&d, Library::generic(), SynthesisEffort::Advanced2016).unwrap();
        let verdict = check_equivalence(&d, &adv.netlist, &[], &[], LIMIT).unwrap();
        assert_eq!(verdict, EcVerdict::Equivalent);
    }

    #[test]
    fn counterexample_on_broken_netlist() {
        let d = generate::parity_tree(6).unwrap();
        // "Optimize" by replacing with a single AND — wrong.
        let mut bad = eda_netlist::Netlist::new("bad");
        let ins: Vec<_> = (0..6).map(|i| bad.add_input(format!("d{i}"))).collect();
        let mut acc = ins[0];
        for &i in &ins[1..] {
            acc = bad.add_gate_fn("g", CellFunction::And(2), &[acc, i]).unwrap();
        }
        bad.add_output("parity", acc);
        let verdict = check_equivalence(&d, &bad, &[], &[], LIMIT).unwrap();
        match verdict {
            EcVerdict::Counterexample(cex) => {
                // The cex must actually distinguish the two.
                let (oa, _) = d.simulate(&cex[..6], &[]);
                let (ob, _) = bad.simulate(&cex[..6], &[]);
                assert_ne!(oa, ob);
            }
            other => panic!("expected a counterexample, got {other:?}"),
        }
    }

    #[test]
    fn tie_high_enables_verified() {
        use eda_netlist::Netlist;
        // a: y = x0 & x1.   b: y = (x0 & x1) & en, en tied high.
        let mut a = Netlist::new("a");
        let x0 = a.add_input("x0");
        let x1 = a.add_input("x1");
        let y = a.add_gate_fn("g", CellFunction::And(2), &[x0, x1]).unwrap();
        a.add_output("y", y);
        let mut b = Netlist::new("b");
        let bx0 = b.add_input("x0");
        let bx1 = b.add_input("x1");
        let en = b.add_input("en");
        let t = b.add_gate_fn("g1", CellFunction::And(2), &[bx0, bx1]).unwrap();
        let y2 = b.add_gate_fn("g2", CellFunction::And(2), &[t, en]).unwrap();
        b.add_output("y", y2);
        assert_eq!(
            check_equivalence(&a, &b, &[2], &[], LIMIT).unwrap(),
            EcVerdict::Equivalent
        );
        // Tied low instead: constant 0 vs AND — counterexample at x0=x1=1.
        match check_equivalence(&a, &b, &[], &[2], LIMIT).unwrap() {
            EcVerdict::Counterexample(cex) => assert_eq!(&cex[..2], &[true, true]),
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn sequential_next_state_checked() {
        let d = generate::switch_fabric(3, 2).unwrap();
        let adv = synthesize(&d, Library::generic(), SynthesisEffort::Advanced2016).unwrap();
        assert_eq!(
            check_equivalence(&d, &adv.netlist, &[], &[], LIMIT).unwrap(),
            EcVerdict::Equivalent
        );
    }

    #[test]
    fn tiny_budget_falls_back_to_simulation() {
        let d = generate::parity_tree(8).unwrap();
        let adv = synthesize(&d, Library::generic(), SynthesisEffort::Advanced2016).unwrap();
        // 32-node budget is hopeless for BDDs; 8 inputs are enumerable.
        let verdict = check_equivalence(&d, &adv.netlist, &[], &[], 32).unwrap();
        assert_eq!(verdict, EcVerdict::Equivalent);
        // 24 inputs are past the enumeration cap: the budget stays a hard cap.
        let wide = generate::parity_tree(24).unwrap();
        assert_eq!(check_equivalence(&wide, &wide, &[], &[], 32).unwrap(), EcVerdict::Inconclusive);
    }

    #[test]
    fn interface_mismatch_reported() {
        let a = generate::parity_tree(4).unwrap();
        let b = generate::parity_tree(6).unwrap();
        assert!(matches!(
            check_equivalence(&a, &b, &[], &[], LIMIT),
            Err(EcError::InterfaceMismatch(_)) | Ok(EcVerdict::Counterexample(_))
        ));
    }

    /// Appends inputs `p0..p11` and a `parity` output over them: more
    /// variables than a 16-node budget holds, so that budget runs the
    /// simulation fallback.
    fn add_parity(n: &mut Netlist) {
        let ps: Vec<_> = (0..12).map(|i| n.add_input(format!("p{i}"))).collect();
        let mut acc = ps[0];
        for (i, &p) in ps.iter().enumerate().skip(1) {
            acc = n.add_gate_fn(format!("px{i}"), CellFunction::Xor2, &[acc, p]).unwrap();
        }
        n.add_output("parity", acc);
    }

    /// Whether `cex` (over `a`'s inputs, then its flops) drives `a` and `b`
    /// apart, `b`'s inputs tied as the check ties them.
    fn distinguishes(a: &Netlist, b: &Netlist, high: &[usize], low: &[usize], cex: &[bool]) -> bool {
        let shared = a.primary_inputs().len();
        let b_pis: Vec<bool> = (0..b.primary_inputs().len())
            .map(|i| if high.contains(&i) { true } else if low.contains(&i) { false } else { cex[i] })
            .collect();
        let (oa, sa) = a.simulate(&cex[..shared], &cex[shared..]);
        let (ob, sb) = b.simulate(&b_pis, &cex[shared..]);
        oa[..] != ob[..oa.len()] || sa != sb
    }

    /// One pair of netlists per way the simulation fallback used to answer a
    /// different question than the BDD path: 2^16 nodes run the BDD path,
    /// 16 nodes the fallback, and both must give the row's verdict kind.
    #[test]
    fn the_fallback_answers_what_the_bdd_path_answers() {
        use eda_netlist::{codec, Netlist};
        let parity = || {
            let mut n = Netlist::new("parity");
            add_parity(&mut n);
            n
        };
        let mut parity_and_unused = parity();
        parity_and_unused.add_input("unused");
        // g = x0 & x1 (& en, at input 14): x0, x1 are inputs 0 and 1.
        let and = |enable: bool| {
            let mut n = Netlist::new("and");
            let x0 = n.add_input("x0");
            let x1 = n.add_input("x1");
            add_parity(&mut n);
            let mut g = n.add_gate_fn("g", CellFunction::And(2), &[x0, x1]).unwrap();
            if enable {
                let en = n.add_input("en");
                g = n.add_gate_fn("ge", CellFunction::And(2), &[g, en]).unwrap();
            }
            n.add_output("g", g);
            n
        };
        // Two scan flops, both Q's observed; `chained` feeds flop 1's SI from
        // flop 0's Q instead of `si`. Scan-enable is left untied.
        let scan = |chained: bool| {
            let mut n = Netlist::new("scan");
            let [d0, d1, si, se, ck] = ["d0", "d1", "si", "se", "ck"].map(|p| n.add_input(p));
            add_parity(&mut n);
            let q0 = n.add_gate_fn("ff0", CellFunction::ScanDff, &[d0, si, se, ck]).unwrap();
            let si1 = if chained { q0 } else { si };
            let q1 = n.add_gate_fn("ff1", CellFunction::ScanDff, &[d1, si1, se, ck]).unwrap();
            n.add_output("q0", q0);
            n.add_output("q1", q1);
            n
        };
        let mut mult = generate::array_multiplier(4).unwrap();
        add_parity(&mut mult);
        let text = codec::to_text(&mult);
        let mutant = codec::from_text(&text.replacen(" XOR2_X1 ", " XNOR2_X1 ", 1)).unwrap();
        assert_ne!(codec::to_text(&mutant), text, "one XOR2 became an XNOR2");

        // (row, a, b, b's inputs tied high, tied low, want Equivalent)
        type Row = (&'static str, Netlist, Netlist, &'static [usize], &'static [usize], bool);
        let rows: [Row; 6] = [
            ("fewer PIs", parity_and_unused, parity(), &[], &[], true),
            ("extra PI tied high", and(false), and(true), &[14], &[], true),
            ("extra PI tied low", and(false), and(true), &[], &[14], false),
            ("tie inside the shared range", and(false), and(false), &[1], &[], false),
            ("scan-enable untied", scan(true), scan(false), &[], &[], true),
            ("mult:4 with an XNOR2", mult, mutant, &[], &[], false),
        ];
        for (name, a, b, high, low, equivalent) in &rows {
            for budget in [1 << 16, 16] {
                match check_equivalence(a, b, high, low, budget).unwrap() {
                    EcVerdict::Equivalent => assert!(equivalent, "{name}, {budget} nodes: Equivalent"),
                    EcVerdict::Counterexample(cex) => {
                        assert!(!equivalent, "{name}, {budget} nodes: Counterexample {cex:?}");
                        assert!(distinguishes(a, b, high, low, &cex), "{name}, {budget} nodes: {cex:?} distinguishes nothing");
                    }
                    EcVerdict::Inconclusive => panic!("{name}, {budget} nodes: Inconclusive"),
                }
            }
        }
    }

    use eda_netlist::CellFunction;
}
