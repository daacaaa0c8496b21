//! PODEM-style deterministic test-pattern generation.
//!
//! Classic two-phase flow: random patterns first (cheap coverage), then
//! path-oriented decision making for the survivors. The PODEM here uses
//! good/faulty three-valued pair simulation, objective/backtrace on primary
//! inputs, and a backtrack budget per fault.

use crate::faults::{fault_sim, random_patterns, CombView, Fault, FaultSimOutcome};
use eda_netlist::{NetDriver, NetId, Netlist};
use std::collections::HashMap;

/// Three-valued logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum V {
    Zero,
    One,
    X,
}

impl V {
    fn known(self) -> bool {
        self != V::X
    }

    fn from_bool(b: bool) -> V {
        if b {
            V::One
        } else {
            V::Zero
        }
    }
}

/// Result of ATPG for one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtpgResult {
    /// A test was found (assignment per [`CombView::inputs`] position; `None`
    /// entries are don't-care).
    Test(Vec<Option<bool>>),
    /// Proven untestable within the search (redundant fault).
    Untestable,
    /// Backtrack budget exhausted.
    Aborted,
}

/// ATPG configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtpgConfig {
    /// Random patterns applied before deterministic search.
    pub random_patterns: usize,
    /// Backtrack limit per fault.
    pub backtrack_limit: usize,
    /// Seed for random-phase patterns and X-fill.
    pub seed: u64,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig { random_patterns: 64, backtrack_limit: 2000, seed: 1 }
    }
}

/// Complete ATPG outcome over a fault list.
#[derive(Debug, Clone)]
pub struct AtpgOutcome {
    /// The generated test set (including the random phase's useful patterns).
    pub patterns: Vec<Vec<bool>>,
    /// Coverage after the full flow.
    pub coverage: f64,
    /// Faults proven untestable.
    pub untestable: usize,
    /// Faults aborted.
    pub aborted: usize,
}

struct Podem<'a> {
    netlist: &'a Netlist,
    view: &'a CombView,
    /// net -> position in view.inputs (for controllable nets).
    input_pos: HashMap<usize, usize>,
    good: Vec<V>,
    faulty: Vec<V>,
    backtracks: usize,
    limit: usize,
}

impl<'a> Podem<'a> {
    fn new(netlist: &'a Netlist, view: &'a CombView, limit: usize) -> Podem<'a> {
        let input_pos =
            view.inputs.iter().enumerate().map(|(i, n)| (n.index(), i)).collect();
        Podem {
            netlist,
            view,
            input_pos,
            good: vec![V::X; netlist.num_nets()],
            faulty: vec![V::X; netlist.num_nets()],
            backtracks: 0,
            limit,
        }
    }

    /// Forward three-valued simulation of both machines from the current
    /// input assignment.
    fn simulate(&mut self, assignment: &[Option<bool>], fault: Fault) {
        let lib = self.netlist.library();
        for v in self.good.iter_mut() {
            *v = V::X;
        }
        for v in self.faulty.iter_mut() {
            *v = V::X;
        }
        for (i, &net) in self.view.inputs.iter().enumerate() {
            let v = assignment[i].map_or(V::X, V::from_bool);
            self.good[net.index()] = v;
            self.faulty[net.index()] = v;
        }
        self.faulty[fault.net.index()] = V::from_bool(fault.stuck_at);
        // If the fault site is an input, it is already overridden above.
        for &id in self.view.order() {
            let inst = self.netlist.instance(id);
            let f = lib.cell(inst.cell()).function;
            if f.is_sequential() || f.is_physical_only() {
                continue;
            }
            let out = inst.output().index();
            let eval = |values: &[V]| -> V {
                // Three-valued evaluation by trying both completions when few
                // X inputs; with many X inputs, sample: if all completions of
                // X agree the value is known. Arity ≤ 4 so enumerate.
                let ins: Vec<V> = inst.inputs().iter().map(|n| values[n.index()]).collect();
                let x_positions: Vec<usize> =
                    (0..ins.len()).filter(|&i| ins[i] == V::X).collect();
                if x_positions.len() > 4 {
                    return V::X;
                }
                let mut seen0 = false;
                let mut seen1 = false;
                for fill in 0..(1usize << x_positions.len()) {
                    let concrete: Vec<bool> = ins
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| match v {
                            V::One => true,
                            V::Zero => false,
                            V::X => {
                                let k = x_positions.iter().position(|&p| p == i).expect("x pos");
                                fill >> k & 1 == 1
                            }
                        })
                        .collect();
                    if f.eval(&concrete) {
                        seen1 = true;
                    } else {
                        seen0 = true;
                    }
                    if seen0 && seen1 {
                        return V::X;
                    }
                }
                if seen1 {
                    V::One
                } else {
                    V::Zero
                }
            };
            let g = eval(&self.good);
            self.good[out] = g;
            if out == fault.net.index() {
                self.faulty[out] = V::from_bool(fault.stuck_at);
            } else {
                self.faulty[out] = eval(&self.faulty);
            }
        }
    }

    /// Whether the fault effect reaches an observable output.
    fn detected(&self) -> bool {
        self.view.outputs.iter().any(|n| {
            let g = self.good[n.index()];
            let f = self.faulty[n.index()];
            g.known() && f.known() && g != f
        })
    }

    /// The D-frontier: instances whose output is X in either machine but
    /// with a propagating difference on some input.
    fn d_frontier(&self) -> Vec<NetId> {
        let lib = self.netlist.library();
        let mut frontier = Vec::new();
        for (_, inst) in self.netlist.instances() {
            let f = lib.cell(inst.cell()).function;
            if f.is_sequential() || f.is_physical_only() {
                continue;
            }
            let out = inst.output();
            let out_x = !self.good[out.index()].known() || !self.faulty[out.index()].known();
            if !out_x {
                continue;
            }
            let has_d = inst.inputs().iter().any(|n| {
                let g = self.good[n.index()];
                let fv = self.faulty[n.index()];
                g.known() && fv.known() && g != fv
            });
            if has_d {
                frontier.push(out);
            }
        }
        frontier
    }

    /// Backtrace an objective `(net, value)` to an unassigned primary input,
    /// returning `(input position, value)`.
    fn backtrace(&self, mut net: NetId, mut value: bool, assignment: &[Option<bool>]) -> Option<(usize, bool)> {
        let lib = self.netlist.library();
        for _ in 0..10_000 {
            if let Some(&pos) = self.input_pos.get(&net.index()) {
                if assignment[pos].is_none() {
                    return Some((pos, value));
                }
                return None;
            }
            let driver = match self.netlist.net(net).driver() {
                Some(NetDriver::Instance(d)) => d,
                _ => return None,
            };
            let inst = self.netlist.instance(driver);
            let f = lib.cell(inst.cell()).function;
            use eda_netlist::CellFunction as CF;
            // Choose an input to pursue and the value it should take.
            let (pick, v) = match f {
                CF::Inv => (0, !value),
                CF::Buf | CF::LevelShifter => (0, value),
                CF::And(_) | CF::Nand(_) | CF::Or(_) | CF::Nor(_) => {
                    // For AND/OR families the objective value for the chosen
                    // input equals the (de-inverted) output goal: AND needs
                    // all-1 for 1 and any-0 for 0; OR needs any-1 for 1 and
                    // all-0 for 0.
                    let inverted = matches!(f, CF::Nand(_) | CF::Nor(_));
                    let goal = if inverted { !value } else { value };
                    let xi = inst
                        .inputs()
                        .iter()
                        .position(|n| !self.good[n.index()].known())
                        .unwrap_or(0);
                    (xi, goal)
                }
                CF::Xor2 | CF::Xnor2 => {
                    let xi = inst
                        .inputs()
                        .iter()
                        .position(|n| !self.good[n.index()].known())
                        .unwrap_or(0);
                    (xi, value)
                }
                _ => {
                    let xi = inst
                        .inputs()
                        .iter()
                        .position(|n| !self.good[n.index()].known())
                        .unwrap_or(0);
                    (xi, value)
                }
            };
            net = inst.inputs()[pick];
            value = v;
        }
        None
    }

    /// The PODEM decision loop.
    fn run(&mut self, fault: Fault, assignment: &mut Vec<Option<bool>>) -> AtpgResult {
        self.simulate(assignment, fault);
        if self.detected() {
            return AtpgResult::Test(assignment.clone());
        }
        if self.backtracks > self.limit {
            return AtpgResult::Aborted;
        }
        // Objective.
        let objective = {
            let g = self.good[fault.net.index()];
            if !g.known() {
                // Activate: drive the net opposite the stuck value.
                Some((fault.net, !fault.stuck_at))
            } else if g == V::from_bool(fault.stuck_at) {
                // Good value equals stuck value: fault cannot be activated
                // under this assignment.
                None
            } else {
                // Propagate: pick a D-frontier gate output and push it to a
                // known value via a side objective (set output "away from X").
                self.d_frontier().first().map(|&out| (out, true))
            }
        };
        let Some((obj_net, obj_val)) = objective else {
            return AtpgResult::Untestable;
        };
        let Some((pos, val)) = self.backtrace(obj_net, obj_val, assignment) else {
            return AtpgResult::Untestable;
        };
        for try_val in [val, !val] {
            assignment[pos] = Some(try_val);
            match self.run(fault, assignment) {
                AtpgResult::Test(t) => return AtpgResult::Test(t),
                AtpgResult::Aborted => return AtpgResult::Aborted,
                AtpgResult::Untestable => {
                    self.backtracks += 1;
                    if self.backtracks > self.limit {
                        assignment[pos] = None;
                        return AtpgResult::Aborted;
                    }
                }
            }
        }
        assignment[pos] = None;
        AtpgResult::Untestable
    }
}

/// Generates a test for one fault.
pub fn generate_test(
    netlist: &Netlist,
    view: &CombView,
    fault: Fault,
    cfg: &AtpgConfig,
) -> AtpgResult {
    let mut podem = Podem::new(netlist, view, cfg.backtrack_limit);
    let mut assignment = vec![None; view.inputs.len()];
    podem.run(fault, &mut assignment)
}

/// Runs the full two-phase ATPG flow over the fault list.
pub fn run_atpg(netlist: &Netlist, view: &CombView, faults: &[Fault], cfg: &AtpgConfig) -> AtpgOutcome {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD1F7);
    let mut patterns = random_patterns(view, cfg.random_patterns, cfg.seed);
    let sim: FaultSimOutcome = fault_sim(netlist, view, faults, &patterns);
    let mut detected = sim.detected;
    let mut untestable = 0usize;
    let mut aborted = 0usize;
    for (fi, &fault) in faults.iter().enumerate() {
        if detected[fi] {
            continue;
        }
        match generate_test(netlist, view, fault, cfg) {
            AtpgResult::Test(t) => {
                // X-fill randomly, then fault-simulate the new pattern against
                // all remaining faults (test compaction for free).
                let pattern: Vec<bool> =
                    t.iter().map(|b| b.unwrap_or_else(|| rng.gen_bool(0.5))).collect();
                let remaining: Vec<(usize, Fault)> = faults
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| !detected[i])
                    .map(|(i, &f)| (i, f))
                    .collect();
                let rem_faults: Vec<Fault> = remaining.iter().map(|&(_, f)| f).collect();
                let out = fault_sim(netlist, view, &rem_faults, std::slice::from_ref(&pattern));
                for (k, &(orig, _)) in remaining.iter().enumerate() {
                    if out.detected[k] {
                        detected[orig] = true;
                    }
                }
                detected[fi] = true; // PODEM found it even if X-fill sim missed
                patterns.push(pattern);
            }
            AtpgResult::Untestable => untestable += 1,
            AtpgResult::Aborted => aborted += 1,
        }
    }
    let num = detected.iter().filter(|&&d| d).count();
    AtpgOutcome {
        patterns,
        coverage: num as f64 / faults.len().max(1) as f64,
        untestable,
        aborted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::fault_list;
    use eda_netlist::{generate, CellFunction, Netlist};

    #[test]
    fn podem_finds_test_for_simple_and() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_gate_fn("u", CellFunction::And(2), &[a, b]).unwrap();
        n.add_output("y", y);
        let view = CombView::new(&n).unwrap();
        // SA0 on the output: need a=b=1.
        let r = generate_test(&n, &view, Fault { net: y, stuck_at: false }, &AtpgConfig::default());
        match r {
            AtpgResult::Test(t) => {
                assert_eq!(t[0], Some(true));
                assert_eq!(t[1], Some(true));
            }
            other => panic!("expected a test, got {other:?}"),
        }
    }

    #[test]
    fn redundant_fault_is_untestable() {
        // y = a | (a & b): the inner AND output SA0 is redundant.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let ab = n.add_gate_fn("u1", CellFunction::And(2), &[a, b]).unwrap();
        let y = n.add_gate_fn("u2", CellFunction::Or(2), &[a, ab]).unwrap();
        n.add_output("y", y);
        let view = CombView::new(&n).unwrap();
        let r = generate_test(&n, &view, Fault { net: ab, stuck_at: false }, &AtpgConfig::default());
        assert_eq!(r, AtpgResult::Untestable, "a|(a&b) = a, the AND is redundant");
    }

    #[test]
    fn full_flow_reaches_high_coverage() {
        let n = generate::ripple_carry_adder(6).unwrap();
        let view = CombView::new(&n).unwrap();
        let faults = fault_list(&n);
        let out = run_atpg(&n, &view, &faults, &AtpgConfig { random_patterns: 16, ..Default::default() });
        assert!(out.coverage > 0.95, "adders are fully testable, got {:.3}", out.coverage);
    }

    #[test]
    fn deterministic_phase_beats_random_alone() {
        let n = generate::equality_comparator(10).unwrap();
        let view = CombView::new(&n).unwrap();
        let faults = fault_list(&n);
        let rand_only = fault_sim(&n, &view, &faults, &random_patterns(&view, 16, 1));
        let full = run_atpg(&n, &view, &faults, &AtpgConfig { random_patterns: 16, ..Default::default() });
        assert!(
            full.coverage > rand_only.coverage(),
            "PODEM should top up random coverage: {:.3} vs {:.3}",
            full.coverage,
            rand_only.coverage()
        );
    }

    #[test]
    fn sequential_design_tested_through_scan_view() {
        let n = generate::switch_fabric(3, 2).unwrap();
        let view = CombView::new(&n).unwrap();
        let faults = fault_list(&n);
        let out = run_atpg(&n, &view, &faults, &AtpgConfig::default());
        assert!(out.coverage > 0.9, "full-scan fabric coverage {:.3}", out.coverage);
    }
}
