//! Stuck-at fault model and bit-parallel fault simulation over the full-scan
//! combinational view ([`CombView`], from `eda_netlist`).
//!
//! Under full scan every flop is controllable/observable, so test generation
//! and fault simulation work on the combinational core: inputs are the
//! primary inputs plus flop outputs, outputs are the primary outputs plus
//! flop D pins.

use eda_netlist::{CellFunction, CombView, NetDriver, NetId, Netlist};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A single stuck-at fault on a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// The faulty net.
    pub net: NetId,
    /// Stuck-at value: `true` = SA1, `false` = SA0.
    pub stuck_at: bool,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "net#{} SA{}", self.net.index(), self.stuck_at as u8)
    }
}

/// Enumerates the full stuck-at fault list: SA0 and SA1 on every logic net
/// (clock nets excluded — they are exercised structurally, not logically).
pub fn fault_list(netlist: &Netlist) -> Vec<Fault> {
    let lib = netlist.library();
    let mut clockish = vec![false; netlist.num_nets()];
    for (net_id, net) in netlist.nets() {
        let all_clock_pins = !net.sinks().is_empty()
            && net.sinks().iter().all(|&(inst, pin)| {
                let f = lib.cell(netlist.instance(inst).cell()).function;
                match f {
                    CellFunction::Dff => pin == 1,
                    CellFunction::ScanDff => pin == 3,
                    CellFunction::ClockGate => pin == 0,
                    _ => false,
                }
            });
        if all_clock_pins {
            clockish[net_id.index()] = true;
        }
    }
    let mut faults = Vec::new();
    for (net_id, net) in netlist.nets() {
        if clockish[net_id.index()] {
            continue;
        }
        if net.driver().is_none() && net.sinks().is_empty() {
            continue;
        }
        // Physical-only drivers (decaps) carry no testable logic.
        if let Some(NetDriver::Instance(d)) = net.driver() {
            if lib.cell(netlist.instance(d).cell()).function.is_physical_only() {
                continue;
            }
        }
        faults.push(Fault { net: net_id, stuck_at: false });
        faults.push(Fault { net: net_id, stuck_at: true });
    }
    faults
}

/// Outcome of fault-simulating a pattern set.
#[derive(Debug, Clone)]
pub struct FaultSimOutcome {
    /// Faults detected, in fault-list order.
    pub detected: Vec<bool>,
    /// Number detected.
    pub num_detected: usize,
    /// Total faults.
    pub total: usize,
    /// 64-lane packed pattern blocks simulated (`ceil(patterns / 64)`).
    pub pattern_blocks: usize,
}

impl FaultSimOutcome {
    /// Fault coverage in [0, 1].
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.num_detected as f64 / self.total as f64
    }
}

/// Packs up to 64 patterns into one lane-parallel word per view input and
/// returns the mask of the lanes that hold a pattern.
fn pack(chunk: &[Vec<bool>], width: usize) -> (Vec<u64>, u64) {
    let mut packed = vec![0u64; width];
    for (lane, pat) in chunk.iter().enumerate() {
        for (i, &b) in pat.iter().enumerate() {
            if b {
                packed[i] |= 1 << lane;
            }
        }
    }
    let lanes_mask = if chunk.len() == 64 { !0 } else { (1u64 << chunk.len()) - 1 };
    (packed, lanes_mask)
}

/// One packed 64-pattern block: the good circuit's value on every net.
struct PatternBlock {
    lanes_mask: u64,
    good: Vec<u64>,
}

/// Packs `patterns` into 64-lane blocks and simulates the good circuit once
/// per block.
fn pattern_blocks(netlist: &Netlist, view: &CombView, patterns: &[Vec<bool>]) -> Vec<PatternBlock> {
    patterns
        .chunks(64)
        .map(|chunk| {
            let (packed, lanes_mask) = pack(chunk, view.inputs.len());
            PatternBlock { lanes_mask, good: view.eval_nets(netlist, &packed, None) }
        })
        .collect()
}

/// What one fault-sim call's detection queries share, read-only: the blocks,
/// and the view indexed the way a walk *forward* from a fault site needs it.
struct ConeSim<'a> {
    netlist: &'a Netlist,
    view: &'a CombView,
    blocks: Vec<PatternBlock>,
    /// Position in `view.order` by instance index; `u32::MAX` for the
    /// instances the view never evaluates (flops, decaps).
    rank: Vec<u32>,
    /// By net index: whether the net is one of `view.outputs`.
    observed: Vec<bool>,
}

/// The detection scratch, reused across faults and blocks. A net's faulty
/// value and an instance's place on the worklist count only while their
/// stamp equals `epoch`, so starting the next (fault, block) is one
/// increment instead of a clear.
struct Scratch {
    epoch: u32,
    faulty: Vec<u64>,
    net_stamp: Vec<u32>,
    queued: Vec<u32>,
    /// Ranks of the gates still to re-evaluate, lowest first.
    worklist: BinaryHeap<Reverse<u32>>,
    ins: Vec<u64>,
}

impl<'a> ConeSim<'a> {
    fn new(netlist: &'a Netlist, view: &'a CombView, patterns: &[Vec<bool>]) -> ConeSim<'a> {
        let mut rank = vec![u32::MAX; netlist.num_instances()];
        for (pos, &id) in view.order().iter().enumerate() {
            rank[id.index()] = pos as u32;
        }
        let mut observed = vec![false; netlist.num_nets()];
        for net in &view.outputs {
            observed[net.index()] = true;
        }
        ConeSim { netlist, view, blocks: pattern_blocks(netlist, view, patterns), rank, observed }
    }

    fn scratch(&self) -> Scratch {
        Scratch {
            epoch: 0,
            faulty: vec![0; self.netlist.num_nets()],
            net_stamp: vec![0; self.netlist.num_nets()],
            queued: vec![0; self.netlist.num_instances()],
            worklist: BinaryHeap::new(),
            ins: Vec::new(),
        }
    }

    /// Whether `fault` is detected by any of the pattern blocks (early exit
    /// on first detection — the bit-parallel analogue of fault dropping).
    ///
    /// Only the fault's fan-out cone can differ from the block's good
    /// values, so only that cone is evaluated: gates come off the worklist
    /// in topological order (a gate's sinks rank above it, so every faulty
    /// input is final by the time the gate is popped), every other net is
    /// read from `good`, and a gate whose output equals its good value in
    /// the block's live lanes ends its branch. Lanes never mix, so what the
    /// dead lanes hold cannot reach a live one.
    fn detects(&self, fault: &Fault, s: &mut Scratch) -> bool {
        let lib = self.netlist.library();
        let forced = if fault.stuck_at { !0u64 } else { 0u64 };
        let site = fault.net;
        self.blocks.iter().any(|blk| {
            if (blk.good[site.index()] ^ forced) & blk.lanes_mask == 0 {
                return false;
            }
            if self.observed[site.index()] {
                return true;
            }
            s.epoch += 1;
            s.worklist.clear();
            s.faulty[site.index()] = forced;
            s.net_stamp[site.index()] = s.epoch;
            self.enqueue_sinks(site, s);
            while let Some(Reverse(rank)) = s.worklist.pop() {
                let inst = self.netlist.instance(self.view.order()[rank as usize]);
                let Scratch { epoch, faulty, net_stamp, ins, .. } = &mut *s;
                ins.clear();
                ins.extend(inst.inputs().iter().map(|n| {
                    let n = n.index();
                    if net_stamp[n] == *epoch { faulty[n] } else { blk.good[n] }
                }));
                let value = lib.cell(inst.cell()).function.eval64(ins);
                let out = inst.output();
                if (value ^ blk.good[out.index()]) & blk.lanes_mask == 0 {
                    continue;
                }
                if self.observed[out.index()] {
                    return true;
                }
                faulty[out.index()] = value;
                net_stamp[out.index()] = *epoch;
                self.enqueue_sinks(out, s);
            }
            false
        })
    }

    /// Puts the gates reading `net` on the worklist, each once per epoch.
    fn enqueue_sinks(&self, net: NetId, s: &mut Scratch) {
        for &(sink, _) in self.netlist.net(net).sinks() {
            let rank = self.rank[sink.index()];
            if rank != u32::MAX && s.queued[sink.index()] != s.epoch {
                s.queued[sink.index()] = s.epoch;
                s.worklist.push(Reverse(rank));
            }
        }
    }
}

/// Bit-parallel fault simulation: each test pattern occupies a lane; faults
/// are dropped once detected.
///
/// `patterns[k]` is one test: a vector of bits per [`CombView::inputs`]
/// position. Pattern blocks and good-circuit responses are computed once;
/// each fault is then an independent detection query, run in fault-list
/// order on one reused scratch.
pub fn fault_sim(netlist: &Netlist, view: &CombView, faults: &[Fault], patterns: &[Vec<bool>]) -> FaultSimOutcome {
    let sim = ConeSim::new(netlist, view, patterns);
    let mut scratch = sim.scratch();
    let detected: Vec<bool> = faults.iter().map(|f| sim.detects(f, &mut scratch)).collect();
    let num_detected = detected.iter().filter(|&&d| d).count();
    FaultSimOutcome { detected, num_detected, total: faults.len(), pattern_blocks: sim.blocks.len() }
}

/// Generates `count` seeded random patterns for a view.
pub fn random_patterns(view: &CombView, count: usize, seed: u64) -> Vec<Vec<bool>> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..view.inputs.len()).map(|_| rng.gen_bool(0.5)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_netlist::generate;
    use eda_netlist::memo::fnv1a;

    #[test]
    fn fault_injection_changes_outputs() {
        let n = generate::parity_tree(8).unwrap();
        let view = CombView::new(&n).unwrap();
        let pats = vec![0u64; view.inputs.len()];
        let good = view.eval64(&n, &pats, None);
        // Force the output net of the first XOR to 1.
        let victim = n.instances().next().unwrap().1.output();
        let bad = view.eval64(&n, &pats, Some((victim, !0)));
        assert_ne!(good, bad, "parity tree propagates any internal flip");
    }

    #[test]
    fn random_patterns_reach_high_coverage_on_parity() {
        let n = generate::parity_tree(16).unwrap();
        let view = CombView::new(&n).unwrap();
        let faults = fault_list(&n);
        let pats = random_patterns(&view, 64, 11);
        let out = fault_sim(&n, &view, &faults, &pats);
        assert!(
            out.coverage() > 0.99,
            "XOR trees are random-testable, got {:.3}",
            out.coverage()
        );
    }

    #[test]
    fn coverage_monotone_in_patterns() {
        let n = generate::random_logic(generate::RandomLogicConfig {
            gates: 200,
            seed: 8,
            ..Default::default()
        })
        .unwrap();
        let view = CombView::new(&n).unwrap();
        let faults = fault_list(&n);
        let few = fault_sim(&n, &view, &faults, &random_patterns(&view, 8, 4));
        let many = fault_sim(&n, &view, &faults, &random_patterns(&view, 128, 4));
        assert!(many.num_detected >= few.num_detected);
        assert!(many.coverage() > 0.5);
    }

    /// The `detected` map of a 150-gate random design, recorded while the
    /// fault list was still chunked over worker threads (each fault was an
    /// independent query, merged in fault-list order).
    #[test]
    fn fault_sim_is_pinned() {
        let n = generate::random_logic(generate::RandomLogicConfig {
            gates: 150,
            seed: 5,
            ..Default::default()
        })
        .unwrap();
        let view = CombView::new(&n).unwrap();
        let faults = fault_list(&n);
        let out = fault_sim(&n, &view, &faults, &random_patterns(&view, 96, 3));
        assert_eq!((out.total, out.num_detected), (404, 278));
        assert_eq!(fnv1a(out.detected.iter().map(|&d| u8::from(d))), 0xdb5a_c2cf_35f8_62ed);
    }

    /// The kernel the cone walk replaced, kept as its oracle: re-simulate the
    /// whole combinational core per fault per block and compare the
    /// observable nets.
    fn detects_by_full_resim(n: &Netlist, view: &CombView, fault: &Fault, patterns: &[Vec<bool>]) -> bool {
        let forced = if fault.stuck_at { !0u64 } else { 0u64 };
        patterns.chunks(64).any(|chunk| {
            let (packed, lanes_mask) = pack(chunk, view.inputs.len());
            let good = view.eval64(n, &packed, None);
            let bad = view.eval64(n, &packed, Some((fault.net, forced)));
            good.iter().zip(&bad).fold(0u64, |acc, (&g, &b)| acc | (g ^ b)) & lanes_mask != 0
        })
    }

    #[test]
    fn cone_kernel_matches_full_resimulation() {
        let fabric = crate::insert_scan(&generate::switch_fabric(3, 4).unwrap(), 2).unwrap().netlist;
        let random =
            generate::random_logic(generate::RandomLogicConfig { gates: 180, seed: 21, ..Default::default() })
                .unwrap();
        let designs = [
            ("random_logic", random),
            ("switch_fabric+scan", fabric),
            ("multiplier", generate::array_multiplier(4).unwrap()),
            ("parity_tree", generate::parity_tree(16).unwrap()),
        ];
        // Which kinds of fault site the comparison went through, over all
        // designs: primary input, flop output, observable net, undetected.
        let mut seen = [false; 4];
        for (name, n) in &designs {
            let view = CombView::new(n).unwrap();
            let faults = fault_list(n);
            let flop_outs: Vec<NetId> = n.flops().iter().map(|&f| n.instance(f).output()).collect();
            // 70 and 96 patterns: the last block is partial both times.
            for count in [70, 96] {
                let pats = random_patterns(&view, count, 17);
                let got = fault_sim(n, &view, &faults, &pats);
                for (f, &detected) in faults.iter().zip(&got.detected) {
                    assert_eq!(
                        detected,
                        detects_by_full_resim(n, &view, f, &pats),
                        "{name}, {count} patterns, {f}"
                    );
                    seen[0] |= n.primary_inputs().contains(&f.net);
                    seen[1] |= flop_outs.contains(&f.net);
                    seen[2] |= view.outputs.contains(&f.net);
                    seen[3] |= !detected;
                }
            }
        }
        assert_eq!(seen, [true; 4], "PI / flop output / observable / undetected sites all compared");
    }

    #[test]
    fn redundant_logic_fault_is_undetected_by_both_kernels() {
        // y = a & !a is constant 0: its stuck-at-0 is undetectable, its
        // stuck-at-1 is seen by every pattern.
        let mut n = Netlist::new("redundant");
        let a = n.add_input("a");
        let na = n.add_gate_fn("inv", CellFunction::Inv, &[a]).unwrap();
        let y = n.add_gate_fn("and", CellFunction::And(2), &[a, na]).unwrap();
        let z = n.add_gate_fn("buf", CellFunction::Buf, &[y]).unwrap();
        n.add_output("z", z);
        let view = CombView::new(&n).unwrap();
        let faults = [Fault { net: y, stuck_at: false }, Fault { net: y, stuck_at: true }];
        let pats = random_patterns(&view, 70, 2);
        let got = fault_sim(&n, &view, &faults, &pats);
        assert_eq!(got.detected, [false, true]);
        for (f, &d) in faults.iter().zip(&got.detected) {
            assert_eq!(d, detects_by_full_resim(&n, &view, f, &pats));
        }
    }

    #[test]
    fn dead_lanes_of_a_partial_block_detect_nothing() {
        // z = buf(a | b | c | d): every stuck-at-1 below z needs the all-zero
        // pattern, which is exactly what the unused lanes of a partial block
        // hold. No live pattern is all-zero, so nothing may be detected.
        let mut n = Netlist::new("or_chain");
        let ins: Vec<NetId> = ["a", "b", "c", "d"].iter().map(|&i| n.add_input(i)).collect();
        let ab = n.add_gate_fn("or0", CellFunction::Or(2), &[ins[0], ins[1]]).unwrap();
        let abc = n.add_gate_fn("or1", CellFunction::Or(2), &[ab, ins[2]]).unwrap();
        let y = n.add_gate_fn("or2", CellFunction::Or(2), &[abc, ins[3]]).unwrap();
        let z = n.add_gate_fn("buf", CellFunction::Buf, &[y]).unwrap();
        n.add_output("z", z);
        let view = CombView::new(&n).unwrap();
        let faults: Vec<Fault> =
            ins.iter().chain(&[ab, abc, y, z]).map(|&net| Fault { net, stuck_at: true }).collect();
        let pats: Vec<Vec<bool>> = (1..71usize).map(|k| (0..4).map(|i| (k % 15 + 1) >> i & 1 == 1).collect()).collect();
        let got = fault_sim(&n, &view, &faults, &pats);
        assert_eq!(got.detected, vec![false; faults.len()]);
        assert!(faults.iter().all(|f| !detects_by_full_resim(&n, &view, f, &pats)));
    }

    #[test]
    fn clock_nets_carry_no_faults() {
        let n = generate::switch_fabric(3, 2).unwrap();
        let faults = fault_list(&n);
        let clk = n.primary_inputs()[0];
        assert!(faults.iter().all(|f| f.net != clk), "clock must not be in the fault list");
    }

    #[test]
    fn sequential_view_exposes_flops() {
        let n = generate::switch_fabric(3, 2).unwrap();
        let view = CombView::new(&n).unwrap();
        assert_eq!(view.inputs.len(), n.primary_inputs().len() + n.flops().len());
        assert_eq!(view.outputs.len(), n.primary_outputs().len() + n.flops().len());
    }
}
