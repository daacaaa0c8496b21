//! Combinational equivalence checking.
//!
//! Builds BDDs for both netlists over the shared input space (primary inputs
//! plus flop outputs, matched by position) and compares outputs and
//! next-state functions canonically. Where a BDD blows past its node budget,
//! the checker falls back to exhaustive bit-parallel simulation for up to 20
//! inputs, and reports [`EcVerdict::Inconclusive`] beyond that.
//!
//! This is the formal backbone for the panel's "consistently verified
//! throughout the design flow": every transformation in the workspace
//! (synthesis, mapping, clock gating, scan, power intent) can be checked
//! against its input netlist.

use crate::bdd::{BddError, BddManager, BddRef};
use eda_netlist::{CellFunction, Netlist, NetlistError};

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

/// Builds BDDs for every output + flop-D function of a netlist.
///
/// Input variable `i` corresponds to the netlist's `i`-th primary input,
/// followed by flop outputs in [`Netlist::flops`] order. `tie_high` lists PI
/// positions to constrain to constant 1 (enable pins added by
/// transformations); `tie_low` likewise to 0.
fn build_functions(
    m: &mut BddManager,
    netlist: &Netlist,
    shared_inputs: usize,
    tie_high: &[usize],
    tie_low: &[usize],
) -> Result<Result<Vec<BddRef>, BddError>, EcError> {
    let lib = netlist.library();
    let mut net_fn: Vec<Option<BddRef>> = vec![None; netlist.num_nets()];
    // Tied PI positions resolved once; tie_high wins over tie_low.
    let mut tied = vec![None; netlist.primary_inputs().len()];
    for (ties, value) in [(tie_low, BddRef::ZERO), (tie_high, BddRef::ONE)] {
        for &i in ties {
            if let Some(t) = tied.get_mut(i) {
                *t = Some(value);
            }
        }
    }
    // Primary inputs: shared space first, then ties.
    for (i, &pi) in netlist.primary_inputs().iter().enumerate() {
        let f = if let Some(t) = tied[i] {
            t
        } else if i < shared_inputs {
            match m.var(i as u32) {
                Ok(v) => v,
                Err(e) => return Ok(Err(e)),
            }
        } else {
            return Err(EcError::InterfaceMismatch(format!(
                "primary input {i} ({}) is beyond the shared space and not tied",
                netlist.net(pi).name()
            )));
        };
        net_fn[pi.index()] = Some(f);
    }
    // Flop outputs are pseudo-inputs after the PIs.
    let flops = netlist.flops();
    for (k, &flop) in flops.iter().enumerate() {
        let v = match m.var((shared_inputs + k) as u32) {
            Ok(v) => v,
            Err(e) => return Ok(Err(e)),
        };
        net_fn[netlist.instance(flop).output().index()] = Some(v);
    }
    let order = netlist.topo_order()?;
    let mut ins: Vec<BddRef> = Vec::new();
    for id in order {
        let inst = netlist.instance(id);
        let func = lib.cell(inst.cell()).function;
        if func.is_sequential() || func.is_physical_only() {
            continue;
        }
        ins.clear();
        ins.extend(inst.inputs().iter().map(|n| net_fn[n.index()].expect("topo order")));
        let f = match eval_cell(m, func, &ins) {
            Ok(f) => f,
            Err(e) => return Ok(Err(e)),
        };
        net_fn[inst.output().index()] = Some(f);
    }
    let mut out = Vec::new();
    for (_, net) in netlist.primary_outputs() {
        out.push(net_fn[net.index()].expect("outputs are driven"));
    }
    for &flop in &flops {
        let d = netlist.instance(flop).inputs()[0];
        out.push(net_fn[d.index()].expect("flop D driven"));
    }
    Ok(Ok(out))
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
/// `b_tie_high`/`b_tie_low` (enables/scan pins added by transformations).
/// Extra primary *outputs* of `b` (e.g. scan-out) are ignored; the flop
/// counts must match.
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
    let num_vars = shared + a_flops;

    let mut m = BddManager::new(node_limit);
    let fa = build_functions(&mut m, a, shared, &[], &[])?;
    let fb = build_functions(&mut m, b, shared, b_tie_high, b_tie_low)?;
    match (fa, fb) {
        (Ok(fa), Ok(fb)) => {
            let checks = a.primary_outputs().len();
            for (i, &x) in fa.iter().enumerate().take(checks + a_flops) {
                // Map: a's output i ↔ b's output i (extra b outputs sit after
                // a's outputs per construction order) — align flop functions.
                let bi = if i < checks { i } else { b.primary_outputs().len() + (i - checks) };
                let y = fb[bi];
                if x != y {
                    let diff = match m.xor(x, y) {
                        Ok(d) => d,
                        Err(_) => return simulate_fallback(a, b, b_tie_high, b_tie_low),
                    };
                    if let Some(cex) = m.satisfy(diff, num_vars) {
                        return Ok(EcVerdict::Counterexample(cex));
                    }
                }
            }
            Ok(EcVerdict::Equivalent)
        }
        _ => simulate_fallback(a, b, b_tie_high, b_tie_low),
    }
}

/// Exhaustive simulation for small input spaces (≤ 20 shared variables).
fn simulate_fallback(
    a: &Netlist,
    b: &Netlist,
    b_tie_high: &[usize],
    b_tie_low: &[usize],
) -> Result<EcVerdict, EcError> {
    let shared = a.primary_inputs().len();
    let vars = shared + a.flops().len();
    if vars > 20 {
        return Ok(EcVerdict::Inconclusive);
    }
    let total = 1usize << vars;
    for base in (0..total).step_by(64) {
        // Pack 64 consecutive assignments into lanes.
        let mut a_pis = vec![0u64; shared];
        let mut state = vec![0u64; a.flops().len()];
        for lane in 0..64.min(total - base) {
            let bits = base + lane;
            for (v, pi) in a_pis.iter_mut().enumerate() {
                if bits >> v & 1 == 1 {
                    *pi |= 1 << lane;
                }
            }
            for (k, s) in state.iter_mut().enumerate() {
                if bits >> (shared + k) & 1 == 1 {
                    *s |= 1 << lane;
                }
            }
        }
        let mut b_pis = a_pis.clone();
        for i in shared..b.primary_inputs().len() {
            if b_tie_high.contains(&i) {
                b_pis.push(!0);
            } else if b_tie_low.contains(&i) {
                b_pis.push(0);
            } else {
                return Err(EcError::InterfaceMismatch(format!("untied extra input {i}")));
            }
        }
        let (oa, sa) = a.simulate64(&a_pis, &state);
        let (ob, sb) = b.simulate64(&b_pis, &state);
        let lanes = 64.min(total - base);
        for lane in 0..lanes {
            let mask = 1u64 << lane;
            let mismatch = oa
                .iter()
                .zip(ob.iter())
                .any(|(&x, &y)| (x ^ y) & mask != 0)
                || sa.iter().zip(sb.iter()).any(|(&x, &y)| (x ^ y) & mask != 0);
            if mismatch {
                let bits = base + lane;
                let cex = (0..vars).map(|v| bits >> v & 1 == 1).collect();
                return Ok(EcVerdict::Counterexample(cex));
            }
        }
    }
    Ok(EcVerdict::Equivalent)
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

    use eda_netlist::CellFunction;
}
