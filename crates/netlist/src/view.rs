//! The levelized combinational view of a netlist.
//!
//! Under full scan every flop is controllable and observable, so every
//! bit-parallel reader of a gate-level netlist — simulation, equivalence
//! checking, fault simulation and test generation — works on the
//! combinational core: inputs are the primary inputs plus flop outputs,
//! outputs are the primary outputs plus flop D nets. The view sorts the core
//! once and defines that interface once.

use crate::netlist::{InstId, NetId, Netlist, NetlistError};

/// The full-scan combinational view of a netlist.
#[derive(Debug, Clone)]
pub struct CombView {
    order: Vec<InstId>,
    /// Controllable nets: primary inputs then flop outputs, in
    /// [`Netlist::flops`] order.
    pub inputs: Vec<NetId>,
    /// Observable nets: primary outputs then flop D nets, in
    /// [`Netlist::flops`] order.
    pub outputs: Vec<NetId>,
}

impl CombView {
    /// Builds the view.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] for cyclic netlists.
    pub fn new(netlist: &Netlist) -> Result<CombView, NetlistError> {
        let lib = netlist.library();
        let mut order = netlist.topo_order()?;
        order.retain(|&id| {
            let f = lib.cell(netlist.instance(id).cell()).function;
            !f.is_sequential() && !f.is_physical_only()
        });
        let mut inputs: Vec<NetId> = netlist.primary_inputs().to_vec();
        let mut outputs: Vec<NetId> =
            netlist.primary_outputs().iter().map(|&(_, n)| n).collect();
        for f in netlist.flops() {
            let inst = netlist.instance(f);
            inputs.push(inst.output());
            outputs.push(inst.inputs()[0]);
        }
        Ok(CombView { order, inputs, outputs })
    }

    /// The gates the view evaluates (combinational, not physical-only), in
    /// topological order.
    pub fn order(&self) -> &[InstId] {
        &self.order
    }

    /// Evaluates the combinational core on 64 parallel patterns, optionally
    /// forcing one net to a constant lane value (fault injection), and
    /// returns the [`CombView::outputs`] values.
    ///
    /// # Panics
    ///
    /// Panics if `pattern.len() != self.inputs.len()`.
    pub fn eval64(
        &self,
        netlist: &Netlist,
        pattern: &[u64],
        force: Option<(NetId, u64)>,
    ) -> Vec<u64> {
        let value = self.eval_nets(netlist, pattern, force);
        self.outputs.iter().map(|n| value[n.index()]).collect()
    }

    /// [`CombView::eval64`] before the observable nets are picked out: the
    /// value of every net, indexed by net. A net neither an input nor driven
    /// by an evaluated gate reads 0.
    ///
    /// # Panics
    ///
    /// Panics if `pattern.len() != self.inputs.len()`.
    pub fn eval_nets(&self, netlist: &Netlist, pattern: &[u64], force: Option<(NetId, u64)>) -> Vec<u64> {
        assert_eq!(pattern.len(), self.inputs.len(), "pattern width mismatch");
        let lib = netlist.library();
        let mut value = vec![0u64; netlist.num_nets()];
        for (i, &net) in self.inputs.iter().enumerate() {
            value[net.index()] = pattern[i];
        }
        if let Some((net, v)) = force {
            value[net.index()] = v;
        }
        let mut ins: Vec<u64> = Vec::new();
        for &id in &self.order {
            let inst = netlist.instance(id);
            let out = inst.output();
            if let Some((fnet, v)) = force {
                if fnet == out {
                    value[out.index()] = v;
                    continue;
                }
            }
            ins.clear();
            ins.extend(inst.inputs().iter().map(|n| value[n.index()]));
            value[out.index()] = lib.cell(inst.cell()).function.eval64(&ins);
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, CellFunction, NetDriver};

    /// The oracle the view is checked against: one lane at a time, each net
    /// evaluated on demand from its driver with [`CellFunction::eval`] — no
    /// topological order, no 64-lane word. `force` pins one net's lane value.
    fn per_lane(n: &Netlist, view: &CombView, pattern: &[u64], force: Option<(NetId, u64)>) -> Vec<u64> {
        fn net_value(
            n: &Netlist,
            net: NetId,
            known: &mut [Option<bool>],
        ) -> bool {
            if let Some(v) = known[net.index()] {
                return v;
            }
            let v = match n.net(net).driver() {
                Some(NetDriver::Instance(d)) => {
                    let inst = n.instance(d);
                    let ins: Vec<bool> = inst.inputs().iter().map(|&i| net_value(n, i, known)).collect();
                    n.library().cell(inst.cell()).function.eval(&ins)
                }
                _ => false,
            };
            known[net.index()] = Some(v);
            v
        }
        let mut out = vec![0u64; view.outputs.len()];
        for lane in 0..64 {
            let mut known = vec![None; n.num_nets()];
            for (&net, &word) in view.inputs.iter().zip(pattern) {
                known[net.index()] = Some(word >> lane & 1 == 1);
            }
            if let Some((net, word)) = force {
                known[net.index()] = Some(word >> lane & 1 == 1);
            }
            for (o, &net) in out.iter_mut().zip(&view.outputs) {
                *o |= u64::from(net_value(n, net, &mut known)) << lane;
            }
        }
        out
    }

    fn lanes(width: usize, salt: u64) -> Vec<u64> {
        (0..width).map(|i| 0x6C62_272E_07BB_0142u64.rotate_left(i as u32) ^ salt).collect()
    }

    #[test]
    fn comb_view_matches_a_per_lane_oracle() {
        let designs = [
            generate::ripple_carry_adder(6).unwrap(),
            generate::switch_fabric(3, 2).unwrap(),
            generate::array_multiplier(3).unwrap(),
        ];
        for n in &designs {
            let view = CombView::new(n).unwrap();
            let pats = lanes(view.inputs.len(), 0);
            let oracle = per_lane(n, &view, &pats, None);
            assert_eq!(view.eval64(n, &pats, None), oracle, "{}", n.name());
            let (outs, _) = n.simulate64(&pats[..n.primary_inputs().len()], &pats[n.primary_inputs().len()..]);
            assert_eq!(outs, oracle[..outs.len()], "{}", n.name());
        }
    }

    #[test]
    fn order_holds_only_evaluated_gates() {
        let n = generate::switch_fabric(3, 2).unwrap();
        let view = CombView::new(&n).unwrap();
        let lib = n.library();
        let comb = n
            .instances()
            .filter(|(_, i)| {
                let f = lib.cell(i.cell()).function;
                !f.is_sequential() && !f.is_physical_only()
            })
            .count();
        assert_eq!(view.order().len(), comb);
        assert!(n.flops().iter().all(|f| !view.order().contains(f)));
    }

    #[test]
    fn next_state_is_each_flops_cell_function() {
        // d = a ^ b feeds a Dff and a ScanDff; the ScanDff shifts `si` in on
        // the lanes where `se` is high.
        let mut n = Netlist::new("flops");
        let ck = n.add_input("ck");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let si = n.add_input("si");
        let se = n.add_input("se");
        let d = n.add_gate_fn("x", CellFunction::Xor2, &[a, b]).unwrap();
        let q0 = n.add_gate_fn("ff", CellFunction::Dff, &[d, ck]).unwrap();
        let q1 = n.add_gate_fn("sff", CellFunction::ScanDff, &[d, si, se, ck]).unwrap();
        n.add_output("q0", q0);
        n.add_output("q1", q1);
        let (wa, wb, wsi, wse) = (0xF0F0_F0F0_F0F0_F0F0, 0xFF00_FF00_FF00_FF00, 0x3333_3333_3333_3333, 0xAAAA_AAAA_5555_5555);
        let state = [0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210];
        let (outs, next) = n.simulate64(&[0, wa, wb, wsi, wse], &state);
        assert_eq!(outs, state, "flop outputs read the present state");
        assert_eq!(next, [wa ^ wb, (wse & wsi) | (!wse & (wa ^ wb))]);
        // The view observes D, whatever scan-enable selects.
        let view = CombView::new(&n).unwrap();
        let observed = view.eval64(&n, &[0, wa, wb, wsi, wse, state[0], state[1]], None);
        assert_eq!(observed, [state[0], state[1], wa ^ wb, wa ^ wb]);
    }

    #[test]
    fn force_pins_inputs_and_flop_outputs() {
        let n = generate::switch_fabric(3, 2).unwrap();
        let view = CombView::new(&n).unwrap();
        let pats = lanes(view.inputs.len(), 0x5A5A);
        let flop_out = n.instance(n.flops()[0]).output();
        let pi = *n.primary_inputs().last().unwrap();
        for net in [flop_out, pi] {
            let pos = view.inputs.iter().position(|&i| i == net).unwrap();
            let word = !pats[pos] ^ 0x0F0F;
            let mut pinned = pats.clone();
            pinned[pos] = word;
            let forced = view.eval64(&n, &pats, Some((net, word)));
            assert_eq!(forced, view.eval64(&n, &pinned, None), "net {}", n.net(net).name());
            assert_eq!(forced, per_lane(&n, &view, &pats, Some((net, word))));
            assert_ne!(forced, view.eval64(&n, &pats, None), "the forced value reaches an output");
        }
    }
}
