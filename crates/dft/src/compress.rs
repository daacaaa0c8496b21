//! Test-data compression and low-pin-count test.
//!
//! Sawicki (claim C14): *"high-compression DFT technologies will be targeted
//! at low-pin-count test, helping to enable lower cost packaging."* The
//! scheme modeled is EDT-like: an LFSR-seeded XOR spreader expands a few
//! scan-in pins onto many short internal chains, and an XOR compactor folds
//! the chain outputs onto few scan-out pins. Fewer pins + shorter chains =
//! less tester time per pattern — the cheap-package enabler.

use crate::faults::{fault_sim, Fault, FaultSimOutcome};
use eda_netlist::{CombView, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A test-access configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestAccess {
    /// External scan pins available (in + out pairs).
    pub scan_pins: usize,
    /// Internal scan chains driven through the decompressor.
    pub internal_chains: usize,
    /// Flops in the design.
    pub flops: usize,
    /// Shift clock in MHz.
    pub shift_mhz: f64,
}

impl TestAccess {
    /// Longest internal chain length.
    pub fn chain_length(&self) -> usize {
        self.flops.div_ceil(self.internal_chains.max(1))
    }

    /// Compression ratio: internal chains per external pin.
    pub fn compression_ratio(&self) -> f64 {
        self.internal_chains as f64 / self.scan_pins.max(1) as f64
    }

    /// Tester seconds to apply `patterns` tests (shift-dominated).
    pub fn test_time_s(&self, patterns: usize) -> f64 {
        let cycles = (patterns as f64 + 1.0) * self.chain_length() as f64;
        cycles / (self.shift_mhz * 1e6)
    }
}

/// The XOR compactor: folds `chains` observed bits onto `pins` outputs.
pub fn compact(chain_bits: &[bool], pins: usize) -> Vec<bool> {
    let pins = pins.max(1);
    let mut out = vec![false; pins];
    for (c, &b) in chain_bits.iter().enumerate() {
        out[c % pins] ^= b;
    }
    out
}

/// Outcome of a compressed-test fault simulation.
#[derive(Debug, Clone)]
pub struct CompressionOutcome {
    /// Coverage with compression (compactor-observed detection).
    pub coverage: f64,
    /// Patterns applied.
    pub patterns: usize,
    /// Tester time for this access config, seconds.
    pub test_time_s: f64,
    /// The access configuration evaluated.
    pub access: TestAccess,
}

/// Fault-simulates a compressed random test.
///
/// Stimuli model the decompressor's output as pseudo-random per scan cell
/// (an LFSR-fed spreader is statistically random, which is why EDT keeps
/// stimulus quality); responses are folded onto `pins` outputs by the XOR
/// compactor, so detection requires surviving *aliasing* — a fault counts
/// only if it flips a compacted output on some pattern.
pub fn compressed_fault_sim(
    netlist: &Netlist,
    view: &CombView,
    faults: &[Fault],
    access: &TestAccess,
    num_patterns: usize,
    seed: u64,
) -> CompressionOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let width = view.inputs.len();
    let mut detected = vec![false; faults.len()];
    let pins = access.scan_pins.max(1);
    for _ in 0..num_patterns {
        let pattern: Vec<u64> =
            (0..width).map(|_| if rng.gen_bool(0.5) { !0u64 } else { 0 }).collect();
        let good = view.eval64(netlist, &pattern, None);
        let good_bits: Vec<bool> = good.iter().map(|&v| v & 1 == 1).collect();
        let good_compact = compact(&good_bits, pins);
        for (fi, fault) in faults.iter().enumerate() {
            if detected[fi] {
                continue;
            }
            let forced = if fault.stuck_at { !0u64 } else { 0u64 };
            let bad = view.eval64(netlist, &pattern, Some((fault.net, forced)));
            let bad_bits: Vec<bool> = bad.iter().map(|&v| v & 1 == 1).collect();
            if compact(&bad_bits, pins) != good_compact {
                detected[fi] = true;
            }
        }
    }
    let num = detected.iter().filter(|&&d| d).count();
    CompressionOutcome {
        coverage: num as f64 / faults.len().max(1) as f64,
        patterns: num_patterns,
        test_time_s: access.test_time_s(num_patterns),
        access: *access,
    }
}

/// Uncompressed (bypass) fault simulation with the same pattern budget:
/// every scan bit is directly tester-controlled and observed.
pub fn bypass_fault_sim(
    netlist: &Netlist,
    view: &CombView,
    faults: &[Fault],
    access: &TestAccess,
    num_patterns: usize,
    seed: u64,
) -> CompressionOutcome {
    let pats = crate::faults::random_patterns(view, num_patterns, seed);
    let out: FaultSimOutcome = fault_sim(netlist, view, faults, &pats);
    // Bypass: the whole register is one chain per pin pair.
    let serial = TestAccess {
        scan_pins: access.scan_pins,
        internal_chains: access.scan_pins,
        flops: access.flops,
        shift_mhz: access.shift_mhz,
    };
    CompressionOutcome {
        coverage: out.coverage(),
        patterns: num_patterns,
        test_time_s: serial.test_time_s(num_patterns),
        access: serial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::fault_list;
    use eda_netlist::generate;

    fn setup() -> (Netlist, CombView, Vec<Fault>) {
        let n = generate::switch_fabric(4, 2).unwrap();
        let view = CombView::new(&n).unwrap();
        let faults = fault_list(&n);
        (n, view, faults)
    }

    #[test]
    fn compactor_preserves_parity() {
        let s = [true, true, false, true, false, false, true, true];
        let c = compact(&s, 3);
        assert_eq!(c.len(), 3);
        // Compaction XOR-folds: parity preserved.
        let parity_in = s.iter().fold(false, |a, &b| a ^ b);
        let parity_out = c.iter().fold(false, |a, &b| a ^ b);
        assert_eq!(parity_in, parity_out);
    }

    #[test]
    fn compression_keeps_most_coverage() {
        let (n, view, faults) = setup();
        let access = TestAccess {
            scan_pins: 4,
            internal_chains: 16,
            flops: n.flops().len(),
            shift_mhz: 50.0,
        };
        let comp = compressed_fault_sim(&n, &view, &faults, &access, 256, 9);
        let byp = bypass_fault_sim(&n, &view, &faults, &access, 256, 9);
        assert!(comp.coverage > 0.85, "compressed coverage {:.3}", comp.coverage);
        assert!(
            comp.coverage > byp.coverage - 0.08,
            "aliasing loss should be small: {:.3} vs {:.3}",
            comp.coverage,
            byp.coverage
        );
    }

    #[test]
    fn compression_slashes_test_time() {
        // Production-scale flop count; the access math needs no netlist.
        let flops = 40_000;
        let comp = TestAccess { scan_pins: 4, internal_chains: 32, flops, shift_mhz: 50.0 };
        let serial = TestAccess { scan_pins: 4, internal_chains: 4, flops, shift_mhz: 50.0 };
        assert!(comp.test_time_s(1000) < serial.test_time_s(1000) / 4.0);
        assert!(comp.compression_ratio() >= 8.0);
    }

    #[test]
    fn low_pin_count_still_tests() {
        // 2 pins: the Fitbit-class package of Sawicki's IoT point.
        let (n, view, faults) = setup();
        let access =
            TestAccess { scan_pins: 2, internal_chains: 16, flops: n.flops().len(), shift_mhz: 25.0 };
        let out = compressed_fault_sim(&n, &view, &faults, &access, 512, 3);
        assert!(out.coverage > 0.7, "2-pin coverage {:.3}", out.coverage);
    }

    #[test]
    fn chain_length_math() {
        let a = TestAccess { scan_pins: 2, internal_chains: 10, flops: 95, shift_mhz: 50.0 };
        assert_eq!(a.chain_length(), 10);
        let b = TestAccess { scan_pins: 2, internal_chains: 1, flops: 95, shift_mhz: 50.0 };
        assert_eq!(b.chain_length(), 95);
    }
}
