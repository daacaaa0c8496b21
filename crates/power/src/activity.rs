//! Switching-activity estimation: static probabilities and transition
//! densities propagated through the netlist.
//!
//! Probabilities assume spatial independence of gate inputs (the classic
//! TPS approximation); densities use the Boolean-difference formulation
//! `D(y) = Σ P(∂f/∂x_i) · D(x_i)`.

use eda_netlist::{CellFunction, NetDriver, NetId, Netlist, NetlistError};

/// Per-net activity: probability of being 1 and toggles per clock cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Activity {
    prob: Vec<f64>,
    density: Vec<f64>,
}

/// Source activities for primary inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityConfig {
    /// Probability a primary input is 1.
    pub input_prob: f64,
    /// Toggles per cycle on each primary input.
    pub input_density: f64,
    /// Toggles per cycle of the clock itself (2: rise + fall).
    pub clock_density: f64,
}

impl Default for ActivityConfig {
    fn default() -> Self {
        ActivityConfig { input_prob: 0.5, input_density: 0.2, clock_density: 2.0 }
    }
}

impl Activity {
    /// Propagates activities through a netlist.
    ///
    /// Clock inputs (nets named `clk`/`clock` or feeding only CK pins) carry
    /// [`ActivityConfig::clock_density`]. Flop outputs toggle at half their
    /// D-input density (a captured value changes at most once per cycle).
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] on cyclic netlists.
    pub fn estimate(netlist: &Netlist, cfg: &ActivityConfig) -> Result<Activity, NetlistError> {
        let lib = netlist.library();
        let n = netlist.num_nets();
        let mut prob = vec![0.5f64; n];
        let mut density = vec![0.0f64; n];

        let clock_nets = clock_nets(netlist);
        for &pi in netlist.primary_inputs() {
            if clock_nets.contains(&pi) {
                prob[pi.index()] = 0.5;
                density[pi.index()] = cfg.clock_density;
            } else {
                prob[pi.index()] = cfg.input_prob;
                density[pi.index()] = cfg.input_density;
            }
        }
        // Flop outputs: assume steady-state probability 0.5 and density from
        // a first pass; two passes give a reasonable fixpoint approximation.
        let order = netlist.topo_order()?;
        for _pass in 0..2 {
            for &id in &order {
                let inst = netlist.instance(id);
                let f = lib.cell(inst.cell()).function;
                let out = inst.output().index();
                let ins = inst.inputs();
                if f.is_sequential() {
                    let d_net = ins[0].index();
                    prob[out] = prob[d_net].clamp(0.05, 0.95);
                    // A flop output toggles when the captured value differs:
                    // density = 2 p (1-p) per cycle.
                    density[out] = 2.0 * prob[d_net] * (1.0 - prob[d_net]);
                    continue;
                }
                if f.is_physical_only() {
                    continue;
                }
                if f == CellFunction::ClockGate {
                    // Gated clock: toggles only while EN is high.
                    let ck = ins[0].index();
                    let en = ins[1].index();
                    prob[out] = prob[ck] * prob[en];
                    density[out] = density[ck] * prob[en];
                    continue;
                }
                let k = ins.len();
                if k == 0 {
                    prob[out] = if f == CellFunction::Const1 { 1.0 } else { 0.0 };
                    density[out] = 0.0;
                    continue;
                }
                let truth = truth_table(f, k);
                let is_one = |row: usize| truth >> row & 1 == 1;
                // P(inputs = row), skipping input `skip`; the factors multiply
                // in input order.
                let weight = |row: usize, skip: usize| {
                    let mut w = 1.0;
                    for (j, net) in ins.iter().enumerate() {
                        if j != skip {
                            let p = prob[net.index()];
                            w *= if row >> j & 1 == 1 { p } else { 1.0 - p };
                        }
                    }
                    w
                };
                let mut dens = 0.0f64;
                for (i, net) in ins.iter().enumerate() {
                    // P(∂f/∂x_i): rows where flipping x_i flips f.
                    let mut p_sensitive = 0.0;
                    for row in (0..1usize << k).filter(|row| row >> i & 1 == 0) {
                        if is_one(row) != is_one(row | 1 << i) {
                            p_sensitive += weight(row, i);
                        }
                    }
                    dens += p_sensitive * density[net.index()];
                }
                let mut p1 = 0.0f64;
                for row in (0..1usize << k).filter(|&row| is_one(row)) {
                    p1 += weight(row, k);
                }
                prob[out] = p1;
                density[out] = dens;
            }
        }
        Ok(Activity { prob, density })
    }

    /// Probability that a net is logic 1.
    pub fn prob(&self, net: NetId) -> f64 {
        self.prob[net.index()]
    }

    /// Toggles per cycle on a net.
    pub fn density(&self, net: NetId) -> f64 {
        self.density[net.index()]
    }

    /// Scales every density by a factor (used to model workload classes like
    /// Rossi's 5× networking traffic).
    pub fn scaled(&self, factor: f64) -> Activity {
        Activity {
            prob: self.prob.clone(),
            density: self.density.iter().map(|d| d * factor).collect(),
        }
    }
}

/// The truth table of a `k`-input function (`k <= 4`): bit `row` is its
/// value with input `j` at bit `j` of `row`.
fn truth_table(f: CellFunction, k: usize) -> u16 {
    assert!(k <= 4, "{f:?} has {k} inputs; truth tables hold 4");
    let mut truth = 0u16;
    for row in 0..1usize << k {
        let mut ins = [false; 4];
        for (j, bit) in ins.iter_mut().enumerate().take(k) {
            *bit = row >> j & 1 == 1;
        }
        truth |= u16::from(f.eval(&ins[..k])) << row;
    }
    truth
}

/// Nets that behave as clocks: primary inputs feeding CK pins of flops or
/// clock gates.
pub fn clock_nets(netlist: &Netlist) -> Vec<NetId> {
    let lib = netlist.library();
    let mut out = Vec::new();
    for (net_id, net) in netlist.nets() {
        if !matches!(net.driver(), Some(NetDriver::PrimaryInput(_))) {
            continue;
        }
        let feeds_clock = net.sinks().iter().any(|&(inst, pin)| {
            let f = lib.cell(netlist.instance(inst).cell()).function;
            match f {
                CellFunction::Dff => pin == 1,
                CellFunction::ScanDff => pin == 3,
                CellFunction::ClockGate => pin == 0,
                _ => false,
            }
        });
        if feeds_clock {
            out.push(net_id);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_netlist::{generate, CellFunction, Netlist};

    #[test]
    fn inverter_preserves_density_flips_prob() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let y = n.add_gate_fn("u", CellFunction::Inv, &[a]).unwrap();
        n.add_output("y", y);
        let act = Activity::estimate(&n, &ActivityConfig { input_prob: 0.8, input_density: 0.3, clock_density: 2.0 }).unwrap();
        assert!((act.prob(y) - 0.2).abs() < 1e-9);
        assert!((act.density(y) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn and_gate_probability() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_gate_fn("u", CellFunction::And(2), &[a, b]).unwrap();
        n.add_output("y", y);
        let act = Activity::estimate(&n, &ActivityConfig::default()).unwrap();
        assert!((act.prob(y) - 0.25).abs() < 1e-9);
        // Density: each input sensitizes with prob 0.5 => 0.5*0.2 + 0.5*0.2.
        assert!((act.density(y) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn xor_always_sensitizes() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_gate_fn("u", CellFunction::Xor2, &[a, b]).unwrap();
        n.add_output("y", y);
        let act = Activity::estimate(&n, &ActivityConfig::default()).unwrap();
        assert!((act.density(y) - 0.4).abs() < 1e-9, "XOR passes both input densities");
    }

    #[test]
    fn clock_net_detected_and_hot() {
        let n = generate::switch_fabric(3, 2).unwrap();
        let clocks = clock_nets(&n);
        assert_eq!(clocks.len(), 1);
        let act = Activity::estimate(&n, &ActivityConfig::default()).unwrap();
        assert!(act.density(clocks[0]) >= 2.0 - 1e-9, "clock toggles every cycle");
    }

    #[test]
    fn scaled_activity_multiplies_densities() {
        let n = generate::parity_tree(8).unwrap();
        let act = Activity::estimate(&n, &ActivityConfig::default()).unwrap();
        let hot = act.scaled(5.0);
        for (net, _) in n.nets() {
            assert!((hot.density(net) - 5.0 * act.density(net)).abs() < 1e-9);
            assert_eq!(hot.prob(net).to_bits(), act.prob(net).to_bits());
        }
    }

    #[test]
    fn probabilities_stay_in_unit_interval() {
        let n = generate::random_logic(generate::RandomLogicConfig {
            gates: 300,
            seed: 5,
            ..Default::default()
        })
        .unwrap();
        let act = Activity::estimate(&n, &ActivityConfig::default()).unwrap();
        for (id, _) in n.nets() {
            let p = act.prob(id);
            assert!((0.0..=1.0).contains(&p), "prob {p} out of range");
            assert!(act.density(id) >= 0.0);
        }
    }

    /// The estimator as it was before the truth tables: a `Vec` per gate,
    /// two `Vec<bool>` per row and a topological order per pass. The bit
    /// oracle for [`Activity::estimate`].
    fn estimate_by_rows(netlist: &Netlist, cfg: &ActivityConfig) -> Activity {
        let lib = netlist.library();
        let n = netlist.num_nets();
        let mut prob = vec![0.5f64; n];
        let mut density = vec![0.0f64; n];
        let clocks = clock_nets(netlist);
        for &pi in netlist.primary_inputs() {
            let clock = clocks.contains(&pi);
            prob[pi.index()] = if clock { 0.5 } else { cfg.input_prob };
            density[pi.index()] = if clock { cfg.clock_density } else { cfg.input_density };
        }
        for _pass in 0..2 {
            for id in netlist.topo_order().unwrap() {
                let inst = netlist.instance(id);
                let f = lib.cell(inst.cell()).function;
                let out = inst.output().index();
                if f.is_sequential() {
                    let d = inst.inputs()[0].index();
                    prob[out] = prob[d].clamp(0.05, 0.95);
                    density[out] = 2.0 * prob[d] * (1.0 - prob[d]);
                    continue;
                }
                if f.is_physical_only() {
                    continue;
                }
                if f == CellFunction::ClockGate {
                    let (ck, en) = (inst.inputs()[0].index(), inst.inputs()[1].index());
                    prob[out] = prob[ck] * prob[en];
                    density[out] = density[ck] * prob[en];
                    continue;
                }
                let ins: Vec<usize> = inst.inputs().iter().map(|x| x.index()).collect();
                let k = ins.len();
                if k == 0 {
                    prob[out] = if f == CellFunction::Const1 { 1.0 } else { 0.0 };
                    density[out] = 0.0;
                    continue;
                }
                let (mut p1, mut dens) = (0.0f64, 0.0f64);
                for i in 0..k {
                    let mut p_sensitive = 0.0;
                    for row in 0..(1usize << k) {
                        if row >> i & 1 == 1 {
                            continue;
                        }
                        let mut w = 1.0;
                        for (j, &net) in ins.iter().enumerate() {
                            if j != i {
                                w *= if row >> j & 1 == 1 { prob[net] } else { 1.0 - prob[net] };
                            }
                        }
                        let a: Vec<bool> = (0..k).map(|j| row >> j & 1 == 1).collect();
                        let mut b = a.clone();
                        b[i] = true;
                        if f.eval(&a) != f.eval(&b) {
                            p_sensitive += w;
                        }
                    }
                    dens += p_sensitive * density[ins[i]];
                }
                for row in 0..(1usize << k) {
                    let a: Vec<bool> = (0..k).map(|j| row >> j & 1 == 1).collect();
                    if f.eval(&a) {
                        let mut w = 1.0;
                        for (j, &net) in ins.iter().enumerate() {
                            w *= if a[j] { prob[net] } else { 1.0 - prob[net] };
                        }
                        p1 += w;
                    }
                }
                prob[out] = p1;
                density[out] = dens;
            }
        }
        Activity { prob, density }
    }

    /// Every four-input function, the majority, a clock gate and a tie cell
    /// — what the generated designs below do not instantiate.
    fn wide_gates() -> Netlist {
        let mut n = Netlist::new("wide");
        let ins: Vec<_> = ["a", "b", "c", "d"].iter().map(|name| n.add_input(*name)).collect();
        let (clk, en) = (n.add_input("clk"), n.add_input("en"));
        let fns = [CellFunction::And(4), CellFunction::Nand(4), CellFunction::Or(4), CellFunction::Nor(4)];
        for (i, f) in fns.into_iter().enumerate() {
            let y = n.add_gate_fn(format!("w{i}"), f, &ins).unwrap();
            n.add_output(format!("y{i}"), y);
        }
        let maj = n.add_gate_fn("maj", CellFunction::Maj3, &ins[..3]).unwrap();
        let gated = n.add_gate_fn("icg", CellFunction::ClockGate, &[clk, en]).unwrap();
        let one = n.add_gate_fn("tie", CellFunction::Const1, &[]).unwrap();
        let q = n.add_gate_fn("q", CellFunction::Dff, &[maj, gated]).unwrap();
        let y = n.add_gate_fn("o", CellFunction::Aoi21, &[q, one, ins[3]]).unwrap();
        n.add_output("o", y);
        n
    }

    #[test]
    fn estimate_matches_the_per_row_oracle_bit_for_bit() {
        let designs = [
            wide_gates(),
            generate::switch_fabric(4, 3).unwrap(),
            generate::array_multiplier(6).unwrap(),
            generate::scale_mesh(2_000, 3).unwrap(),
            generate::random_logic(generate::RandomLogicConfig { gates: 400, seed: 7, ..Default::default() })
                .unwrap(),
        ];
        let cfg = ActivityConfig { input_prob: 0.3, input_density: 0.45, clock_density: 2.0 };
        for n in &designs {
            let (got, want) = (Activity::estimate(n, &cfg).unwrap(), estimate_by_rows(n, &cfg));
            for (net, _) in n.nets() {
                assert_eq!(got.prob(net).to_bits(), want.prob(net).to_bits(), "{} {net:?}", n.name());
                assert_eq!(got.density(net).to_bits(), want.density(net).to_bits(), "{} {net:?}", n.name());
            }
        }
    }
}
