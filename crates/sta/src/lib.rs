//! Static timing analysis for the `eda` workspace.
//!
//! A classic block-based STA: topological arrival-time propagation with
//! load-dependent cell delays, required times from the clock constraint, and
//! slack/critical-path extraction. Both the synthesis comparison (claim C3's
//! "we have also improved performance") and the flow report use it.
//!
//! # Delay model
//!
//! `delay(cell, load) = intrinsic + drive_ps_per_ff × load_fF`, where the
//! load of a net is the sum of its sink pins' input capacitances plus a
//! wire-cap estimate per fanout. Flops launch at their clock-to-Q delay and
//! capture with a fixed setup margin.
//!
//! # Examples
//!
//! ```
//! use eda_netlist::generate;
//! use eda_sta::{TimingAnalysis, TimingConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = generate::ripple_carry_adder(16)?;
//! let timing = TimingAnalysis::run(&design, &TimingConfig::default())?;
//! assert!(timing.critical_path_ps > 0.0);
//! assert!(!timing.critical_path.is_empty());
//! # Ok(())
//! # }
//! ```

use eda_netlist::{InstId, NetId, Netlist, NetlistError, WIRE_CAP_PER_FANOUT_FF};

/// Flop setup time in picoseconds.
const SETUP_PS: f64 = 20.0;

/// Analysis parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingConfig {
    /// Clock period in picoseconds (constraint for slack).
    pub clock_period_ps: f64,
    /// Flop hold time in picoseconds.
    pub hold_ps: f64,
    /// Arrival time of primary inputs, in picoseconds.
    pub input_arrival_ps: f64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig { clock_period_ps: 1000.0, hold_ps: 15.0, input_arrival_ps: 0.0 }
    }
}

/// One step of the reported critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// Instance on the path.
    pub instance: String,
    /// Cell name.
    pub cell: String,
    /// Arrival time at the instance output, ps.
    pub arrival_ps: f64,
}

/// Complete timing report for one netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingAnalysis {
    /// Longest register-to-register / input-to-output delay, ps.
    pub critical_path_ps: f64,
    /// Worst negative slack (0 if timing is met), ps.
    pub wns_ps: f64,
    /// Total negative slack across all endpoints, ps.
    pub tns_ps: f64,
    /// Number of endpoints with negative slack.
    pub failing_endpoints: usize,
    /// Endpoints analyzed (POs + flop D pins).
    pub endpoints: usize,
    /// The worst path, launch to capture.
    pub critical_path: Vec<PathStep>,
    /// Worst hold slack over flop D pins, ps (negative = violation).
    pub worst_hold_slack_ps: f64,
    /// Number of flop endpoints violating hold.
    pub hold_violations: usize,
    /// Combinational timing arcs evaluated during propagation (one per
    /// non-sequential, non-physical instance).
    pub arcs_timed: usize,
    arrivals: Vec<f64>,
}

impl TimingAnalysis {
    /// Runs STA on a netlist.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] if the netlist is invalid or cyclic.
    pub fn run(netlist: &Netlist, config: &TimingConfig) -> Result<TimingAnalysis, NetlistError> {
        let lib = netlist.library();
        let order = netlist.topo_order()?;
        let num_nets = netlist.num_nets();
        let mut arrival = vec![0.0f64; num_nets];
        let mut from_inst: Vec<Option<InstId>> = vec![None; num_nets];

        for &pi in netlist.primary_inputs() {
            arrival[pi.index()] = config.input_arrival_ps;
        }
        for f in netlist.flops() {
            let inst = netlist.instance(f);
            let def = lib.cell(inst.cell());
            arrival[inst.output().index()] = def.delay_ps;
            from_inst[inst.output().index()] = Some(f);
        }

        let load_of = |net: NetId| -> f64 {
            let n = netlist.net(net);
            let pin_caps: f64 = n
                .sinks()
                .iter()
                .map(|&(s, _)| lib.cell(netlist.instance(s).cell()).input_cap_ff)
                .sum();
            pin_caps + n.fanout() as f64 * WIRE_CAP_PER_FANOUT_FF
        };

        // Min (early) arrivals for hold analysis run in the same pass.
        let mut early = vec![0.0f64; num_nets];
        for &pi in netlist.primary_inputs() {
            early[pi.index()] = config.input_arrival_ps;
        }
        for f in netlist.flops() {
            let inst = netlist.instance(f);
            // Fast clk-to-Q corner: half the nominal.
            early[inst.output().index()] = lib.cell(inst.cell()).delay_ps * 0.5;
        }
        let mut arcs_timed = 0usize;
        for &id in &order {
            let inst = netlist.instance(id);
            let def = lib.cell(inst.cell());
            if def.function.is_sequential() || def.function.is_physical_only() {
                continue;
            }
            arcs_timed += 1;
            let worst_in =
                inst.inputs().iter().map(|n| arrival[n.index()]).fold(0.0f64, f64::max);
            let best_in =
                inst.inputs().iter().map(|n| early[n.index()]).fold(f64::INFINITY, f64::min);
            let out = inst.output();
            arrival[out.index()] = worst_in + def.delay_ps + def.drive_ps_per_ff * load_of(out);
            // Fast corner: half the intrinsic, no load pessimism.
            early[out.index()] = if inst.inputs().is_empty() {
                0.0
            } else {
                best_in + def.delay_ps * 0.5
            };
            from_inst[out.index()] = Some(id);
        }
        // Hold slacks at flop D pins: early data arrival must beat hold.
        let mut worst_hold = f64::INFINITY;
        let mut hold_violations = 0usize;
        for f in netlist.flops() {
            let d = netlist.instance(f).inputs()[0];
            let slack = early[d.index()] - config.hold_ps;
            if slack < worst_hold {
                worst_hold = slack;
            }
            if slack < 0.0 {
                hold_violations += 1;
            }
        }
        if netlist.flops().is_empty() {
            worst_hold = 0.0;
        }

        struct Endpoint {
            net: NetId,
            required: f64,
        }
        let mut endpoints: Vec<Endpoint> = netlist
            .primary_outputs()
            .iter()
            .map(|&(_, n)| Endpoint { net: n, required: config.clock_period_ps })
            .collect();
        for f in netlist.flops() {
            let inst = netlist.instance(f);
            endpoints.push(Endpoint {
                net: inst.inputs()[0],
                required: config.clock_period_ps - SETUP_PS,
            });
        }

        let mut wns = 0.0f64;
        let mut tns = 0.0f64;
        let mut failing = 0usize;
        let mut worst: Option<NetId> = None;
        let mut worst_arrival = -1.0f64;
        for ep in &endpoints {
            let a = arrival[ep.net.index()];
            let slack = ep.required - a;
            if slack < 0.0 {
                failing += 1;
                tns += slack;
                if slack < wns {
                    wns = slack;
                }
            }
            if a > worst_arrival {
                worst_arrival = a;
                worst = Some(ep.net);
            }
        }

        let mut path = Vec::new();
        let mut cursor = worst;
        while let Some(net) = cursor {
            match from_inst[net.index()] {
                None => break,
                Some(inst_id) => {
                    let inst = netlist.instance(inst_id);
                    let def = lib.cell(inst.cell());
                    path.push(PathStep {
                        instance: inst.name().to_string(),
                        cell: def.name.clone(),
                        arrival_ps: arrival[net.index()],
                    });
                    if def.function.is_sequential() {
                        break;
                    }
                    cursor = inst.inputs().iter().copied().max_by(|a, b| {
                        arrival[a.index()].total_cmp(&arrival[b.index()])
                    });
                }
            }
        }
        path.reverse();

        Ok(TimingAnalysis {
            critical_path_ps: worst_arrival.max(0.0),
            wns_ps: wns,
            tns_ps: tns,
            failing_endpoints: failing,
            endpoints: endpoints.len(),
            critical_path: path,
            worst_hold_slack_ps: worst_hold,
            hold_violations,
            arcs_timed,
            arrivals: arrival,
        })
    }

    /// Arrival time of a net, ps.
    pub fn arrival_ps(&self, net: NetId) -> f64 {
        self.arrivals[net.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_netlist::{generate, CellFunction, Netlist};

    #[test]
    fn chain_delay_accumulates() {
        let mut n = Netlist::new("chain");
        let mut x = n.add_input("a");
        for i in 0..5 {
            x = n.add_gate_fn(format!("u{i}"), CellFunction::Inv, &[x]).unwrap();
        }
        n.add_output("y", x);
        let t = TimingAnalysis::run(&n, &TimingConfig::default()).unwrap();
        assert!(t.critical_path_ps > 5.0 * 8.0);
        assert!(t.critical_path_ps < 5.0 * 30.0);
        assert_eq!(t.critical_path.len(), 5);
        assert_eq!(t.failing_endpoints, 0);
    }

    #[test]
    fn fanout_increases_delay() {
        let build = |fanout: usize| {
            let mut n = Netlist::new("f");
            let a = n.add_input("a");
            let x = n.add_gate_fn("drv", CellFunction::Inv, &[a]).unwrap();
            for i in 0..fanout {
                let y = n.add_gate_fn(format!("s{i}"), CellFunction::Buf, &[x]).unwrap();
                n.add_output(format!("o{i}"), y);
            }
            TimingAnalysis::run(&n, &TimingConfig::default()).unwrap().critical_path_ps
        };
        assert!(build(8) > build(1));
    }

    #[test]
    fn adder_critical_path_grows_with_width() {
        let t8 = TimingAnalysis::run(
            &generate::ripple_carry_adder(8).unwrap(),
            &TimingConfig::default(),
        )
        .unwrap();
        let t32 = TimingAnalysis::run(
            &generate::ripple_carry_adder(32).unwrap(),
            &TimingConfig::default(),
        )
        .unwrap();
        assert!(t32.critical_path_ps > 2.0 * t8.critical_path_ps);
    }

    #[test]
    fn tight_clock_fails_timing() {
        let n = generate::ripple_carry_adder(32).unwrap();
        let cfg = TimingConfig { clock_period_ps: 100.0, ..Default::default() };
        let t = TimingAnalysis::run(&n, &cfg).unwrap();
        assert!(t.wns_ps < 0.0);
        assert!(t.tns_ps <= t.wns_ps);
        assert!(t.failing_endpoints > 0);
    }

    #[test]
    fn sequential_endpoints_counted() {
        let n = generate::switch_fabric(3, 2).unwrap();
        let t = TimingAnalysis::run(&n, &TimingConfig::default()).unwrap();
        assert_eq!(t.endpoints, n.primary_outputs().len() + n.flops().len());
    }

    #[test]
    fn critical_path_is_monotone_in_arrival() {
        let n = generate::array_multiplier(4).unwrap();
        let t = TimingAnalysis::run(&n, &TimingConfig::default()).unwrap();
        let mut last = 0.0;
        for step in &t.critical_path {
            assert!(step.arrival_ps >= last, "arrivals must increase along the path");
            last = step.arrival_ps;
        }
        assert!((last - t.critical_path_ps).abs() < 1e-9);
    }

    #[test]
    fn input_arrival_shifts_everything() {
        let n = generate::parity_tree(8).unwrap();
        let base = TimingAnalysis::run(&n, &TimingConfig::default()).unwrap();
        let shifted = TimingAnalysis::run(
            &n,
            &TimingConfig { input_arrival_ps: 100.0, ..Default::default() },
        )
        .unwrap();
        assert!((shifted.critical_path_ps - base.critical_path_ps - 100.0).abs() < 1e-6);
    }

    #[test]
    fn shift_register_has_hold_risk() {
        // Back-to-back flops with no logic between: the fast-corner Q->D
        // path is only half a clk-to-Q, a classic hold hazard.
        let mut n = Netlist::new("shift");
        let ck = n.add_input("ck");
        let d = n.add_input("d");
        let q1 = n.add_gate_fn("ff1", CellFunction::Dff, &[d, ck]).unwrap();
        let q2 = n.add_gate_fn("ff2", CellFunction::Dff, &[q1, ck]).unwrap();
        n.add_output("q", q2);
        let cfg = TimingConfig { hold_ps: 30.0, ..Default::default() };
        let t = TimingAnalysis::run(&n, &cfg).unwrap();
        assert!(t.hold_violations > 0, "direct Q->D must violate a 30ps hold");
        assert!(t.worst_hold_slack_ps < 0.0);
    }

    #[test]
    fn buffering_fixes_hold() {
        let mut n = Netlist::new("shift_buf");
        let ck = n.add_input("ck");
        let d = n.add_input("d");
        let q1 = n.add_gate_fn("ff1", CellFunction::Dff, &[d, ck]).unwrap();
        let mut x = q1;
        for i in 0..6 {
            x = n.add_gate_fn(format!("hold_buf{i}"), CellFunction::Buf, &[x]).unwrap();
        }
        let q2 = n.add_gate_fn("ff2", CellFunction::Dff, &[x, ck]).unwrap();
        n.add_output("q", q2);
        let cfg = TimingConfig { hold_ps: 30.0, ..Default::default() };
        let t = TimingAnalysis::run(&n, &cfg).unwrap();
        // ff1's D (from the PI) may be early, but the buffered Q->D path is
        // now safe: worst hold slack improves and the buffered flop passes.
        let mut bare = Netlist::new("bare");
        let bck = bare.add_input("ck");
        let bd = bare.add_input("d");
        let bq1 = bare.add_gate_fn("ff1", CellFunction::Dff, &[bd, bck]).unwrap();
        let bq2 = bare.add_gate_fn("ff2", CellFunction::Dff, &[bq1, bck]).unwrap();
        bare.add_output("q", bq2);
        let t0 = TimingAnalysis::run(&bare, &cfg).unwrap();
        assert!(t.hold_violations < t0.hold_violations + 1);
        assert!(t.worst_hold_slack_ps >= t0.worst_hold_slack_ps);
    }

    #[test]
    fn combinational_design_has_no_hold_endpoints() {
        let n = generate::parity_tree(8).unwrap();
        let t = TimingAnalysis::run(&n, &TimingConfig::default()).unwrap();
        assert_eq!(t.hold_violations, 0);
        assert_eq!(t.worst_hold_slack_ps, 0.0);
    }

    #[test]
    fn cyclic_netlist_rejected() {
        use eda_netlist::InstId;
        let _ = InstId::from_index(0);
        // Build a cycle via the splice trick used in netlist tests is not
        // possible through the public API; instead check the error path with
        // an undriven output.
        let mut n = Netlist::new("bad");
        let ghost = n.add_net("ghost");
        n.add_output("y", ghost);
        assert!(n.validate().is_err());
        // STA still runs (topo order fine; arrival of undriven net is 0).
        let t = TimingAnalysis::run(&n, &TimingConfig::default());
        assert!(t.is_ok());
    }
}
