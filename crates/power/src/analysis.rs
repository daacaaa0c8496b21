//! Power analysis: dynamic + leakage per technology node.
//!
//! Domic (claim C6): voltage scaling took off at 130 nm when "the dynamic
//! power reduction started to be offset by the static power increase", and at
//! 90/65 nm it became "virtually impossible to design an IC without
//! sophisticated power reduction techniques". [`node_power_sweep`] reproduces
//! that crossover from the [`eda_tech::Node`] parameters; [`analyze`] prices
//! a real netlist at a node.

use crate::activity::Activity;
use eda_netlist::{Netlist, WIRE_CAP_PER_FANOUT_FF};
use eda_tech::Node;

/// Library characterization reference node (cell caps/leakages in the
/// netlist libraries are assumed to be extracted at this node).
pub const REFERENCE_NODE: Node = Node::N90;

/// A power report in milliwatts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerReport {
    /// Switching (dynamic) power, mW.
    pub dynamic_mw: f64,
    /// Leakage (static) power, mW.
    pub leakage_mw: f64,
    /// Clock-network share of the dynamic power, mW.
    pub clock_mw: f64,
}

impl PowerReport {
    /// Total power in mW.
    pub fn total_mw(&self) -> f64 {
        self.dynamic_mw + self.leakage_mw
    }
}

/// Analysis knobs. Each net's wire load is
/// [`WIRE_CAP_PER_FANOUT_FF`] per fanout, added to its pin caps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerConfig {
    /// Target technology node.
    pub node: Node,
    /// Clock frequency in MHz.
    pub freq_mhz: f64,
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig { node: Node::N28, freq_mhz: 500.0 }
    }
}

/// Prices a netlist's power at a node given activities.
pub fn analyze(netlist: &Netlist, activity: &Activity, cfg: &PowerConfig) -> PowerReport {
    let lib = netlist.library();
    let ref_spec = REFERENCE_NODE.spec();
    let spec = cfg.node.spec();
    let cap_scale = spec.gate_cap_ff / ref_spec.gate_cap_ff;
    let leak_scale = spec.leakage_nw_per_gate / ref_spec.leakage_nw_per_gate;
    let vdd = spec.vdd_v;
    let f_hz = cfg.freq_mhz * 1e6;

    let clock_nets: Vec<_> = crate::activity::clock_nets(netlist);
    let mut dynamic_w = 0.0f64;
    let mut clock_w = 0.0f64;
    for (net_id, net) in netlist.nets() {
        // Load: sink pin caps + wire cap, scaled to the node.
        let pin_cap_ff: f64 = net
            .sinks()
            .iter()
            .map(|&(s, _)| lib.cell(netlist.instance(s).cell()).input_cap_ff)
            .sum::<f64>()
            * cap_scale;
        let wire_ff = net.fanout() as f64 * WIRE_CAP_PER_FANOUT_FF * cap_scale;
        let c_f = (pin_cap_ff + wire_ff) * 1e-15;
        let toggles_per_s = activity.density(net_id) * f_hz;
        let p = 0.5 * c_f * vdd * vdd * toggles_per_s;
        dynamic_w += p;
        if clock_nets.contains(&net_id) {
            clock_w += p;
        }
    }
    let leakage_w: f64 = netlist
        .instances()
        .map(|(_, i)| lib.cell(i.cell()).leakage_nw * leak_scale * 1e-9)
        .sum();
    PowerReport {
        dynamic_mw: dynamic_w * 1e3,
        leakage_mw: leakage_w * 1e3,
        clock_mw: clock_w * 1e3,
    }
}

/// One row of the cross-node power sweep for a fixed design: the same gate
/// count priced at every node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodePowerRow {
    /// The node.
    pub node: Node,
    /// Dynamic power, mW.
    pub dynamic_mw: f64,
    /// Static power, mW.
    pub leakage_mw: f64,
}

/// Sweeps a netlist's power across all nodes (constant frequency): the
/// dynamic/static crossover data behind claim C6.
pub fn node_power_sweep(netlist: &Netlist, activity: &Activity, freq_mhz: f64) -> Vec<NodePowerRow> {
    Node::ALL
        .iter()
        .map(|&node| {
            let r = analyze(
                netlist,
                activity,
                &PowerConfig { node, freq_mhz },
            );
            NodePowerRow { node, dynamic_mw: r.dynamic_mw, leakage_mw: r.leakage_mw }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::ActivityConfig;
    use eda_netlist::generate;

    fn setup() -> (Netlist, Activity) {
        let n = generate::switch_fabric(4, 4).unwrap();
        let a = Activity::estimate(&n, &ActivityConfig::default()).unwrap();
        (n, a)
    }

    #[test]
    fn power_is_positive_and_scales_with_frequency() {
        let (n, a) = setup();
        let p1 = analyze(&n, &a, &PowerConfig { freq_mhz: 100.0, ..Default::default() });
        let p2 = analyze(&n, &a, &PowerConfig { freq_mhz: 200.0, ..Default::default() });
        assert!(p1.dynamic_mw > 0.0 && p1.leakage_mw > 0.0);
        assert!((p2.dynamic_mw / p1.dynamic_mw - 2.0).abs() < 1e-9);
        assert_eq!(p1.leakage_mw, p2.leakage_mw, "leakage is frequency-independent");
    }

    #[test]
    fn clock_power_is_substantial_share() {
        let (n, a) = setup();
        let p = analyze(&n, &a, &PowerConfig::default());
        assert!(p.clock_mw > 0.0);
        assert!(p.clock_mw < p.dynamic_mw);
        assert!(p.clock_mw / p.dynamic_mw > 0.1, "clocks burn a real share");
    }

    #[test]
    fn panel_claim_static_overtakes_dynamic_near_90_65() {
        // At constant frequency and design, find where leakage/dynamic peaks.
        let (n, a) = setup();
        let sweep = node_power_sweep(&n, &a, 200.0);
        let ratio = |node: Node| {
            let row = sweep.iter().find(|r| r.node == node).unwrap();
            row.leakage_mw / row.dynamic_mw
        };
        // The static share rises steeply into 90/65 then is tamed (HKMG/FinFET).
        assert!(ratio(Node::N90) > 4.0 * ratio(Node::N180));
        assert!(ratio(Node::N65) > 4.0 * ratio(Node::N180));
        assert!(ratio(Node::N16) < ratio(Node::N65));
    }

    #[test]
    fn higher_activity_costs_dynamic_power() {
        let (n, a) = setup();
        let hot = a.scaled(5.0);
        let base = analyze(&n, &a, &PowerConfig::default());
        let net = analyze(&n, &hot, &PowerConfig::default());
        assert!((net.dynamic_mw / base.dynamic_mw - 5.0).abs() < 0.2);
        assert_eq!(net.leakage_mw, base.leakage_mw);
    }
}
