//! Model-based optical proximity correction (OPC).
//!
//! Iteratively biases mask edges against the simulated aerial image until
//! the printed contours land on target — Sawicki's "computational
//! lithography" (claim C15). Rule-based pre-bias is applied first (a fixed
//! per-edge bias), then model-based iterations refine each edge
//! independently.

use crate::aerial::{edge_placement_errors, rms, OpticalModel};

/// OPC configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpcConfig {
    /// Model-based iterations.
    pub iterations: usize,
    /// Feedback gain on the edge correction (0 < gain ≤ 1).
    pub gain: f64,
    /// Rule-based pre-bias per edge in nm (applied outward).
    pub prebias_nm: f64,
}

impl Default for OpcConfig {
    fn default() -> Self {
        OpcConfig { iterations: 8, gain: 0.6, prebias_nm: 2.0 }
    }
}

impl OpcConfig {
    /// The backoff retry configuration: half the correction step (gain) and
    /// twice the iterations. Used by the flow supervisor when a first OPC
    /// pass fails to converge — a large gain can oscillate around the target
    /// edge, and halving it trades speed for stability.
    pub fn backoff(&self) -> OpcConfig {
        OpcConfig { gain: self.gain / 2.0, iterations: self.iterations * 2, ..*self }
    }
}

/// Result of an OPC run.
#[derive(Debug, Clone, PartialEq)]
pub struct OpcOutcome {
    /// The corrected mask intervals.
    pub mask: Vec<(f64, f64)>,
    /// RMS EPE after each iteration (index 0 = before any model-based
    /// correction, i.e. after pre-bias only).
    pub rms_epe_history: Vec<f64>,
    /// Fragments whose mask interval changed (bitwise) across all
    /// correction iterations — the provenance count of edge moves. A pure
    /// function of the target and config.
    pub fragment_moves: usize,
}

impl OpcOutcome {
    /// Final RMS EPE in nm.
    pub fn final_rms_epe(&self) -> f64 {
        *self.rms_epe_history.last().expect("history has the initial entry")
    }

    /// Whether the correction converged below `rms_epe_limit_nm`.
    pub fn converged(&self, rms_epe_limit_nm: f64) -> bool {
        self.final_rms_epe() <= rms_epe_limit_nm
    }
}

/// Runs OPC for a 1-D target pattern.
///
/// Each mask is printed once: the contours that measure one iteration's
/// EPE are the ones the next correction step reads, so a run costs
/// `iterations + 1` convolutions.
///
/// # Panics
///
/// Panics if `target` is empty or gain is outside `(0, 1]`.
pub fn run_opc(model: &OpticalModel, target: &[(f64, f64)], extent_nm: f64, cfg: &OpcConfig) -> OpcOutcome {
    assert!(!target.is_empty(), "OPC needs a target pattern");
    assert!(cfg.gain > 0.0 && cfg.gain <= 1.0, "gain must be in (0, 1]");
    // Rule-based pre-bias: expand every feature.
    let mut mask: Vec<(f64, f64)> = target
        .iter()
        .map(|&(a, b)| (a - cfg.prebias_nm, b + cfg.prebias_nm))
        .collect();
    let mut printed = model.print(&mask, extent_nm);
    let mut history = Vec::with_capacity(cfg.iterations + 1);
    history.push(rms(&edge_placement_errors(target, &printed)));
    let mut fragment_moves = 0usize;
    for _ in 0..cfg.iterations {
        // Per-edge correction: move each mask edge opposite its EPE. Each
        // fragment reads only its own mask interval plus the printed
        // contours.
        let new_mask: Vec<(f64, f64)> = target
            .iter()
            .zip(&mask)
            .map(|(&(t0, t1), &(m0, m1))| {
                // Printed edge nearest each target edge.
                let p0 = printed
                    .iter()
                    .map(|&(p, _)| p)
                    .min_by(|a, b| {
                        (a - t0).abs().partial_cmp(&(b - t0).abs()).expect("finite")
                    });
                let p1 = printed
                    .iter()
                    .map(|&(_, p)| p)
                    .min_by(|a, b| {
                        (a - t1).abs().partial_cmp(&(b - t1).abs()).expect("finite")
                    });
                // Signed edge errors (printed minus target), clamped; a
                // vanished feature gets a fixed outward widening instead.
                let (e0, e1) = match (p0, p1) {
                    (Some(p0), Some(p1)) if (p1 - p0) > 1.0 => {
                        ((p0 - t0).clamp(-20.0, 20.0), (p1 - t1).clamp(-20.0, 20.0))
                    }
                    _ => (2.0, -2.0),
                };
                // An edge printing too far right (e > 0) moves its mask edge left.
                let mut a = m0 - cfg.gain * e0;
                let mut b = m1 - cfg.gain * e1;
                if b - a < 2.0 {
                    let c = (a + b) / 2.0;
                    a = c - 1.0;
                    b = c + 1.0;
                }
                (a, b)
            })
            .collect();
        fragment_moves += new_mask
            .iter()
            .zip(&mask)
            .filter(|(n, o)| n.0.to_bits() != o.0.to_bits() || n.1.to_bits() != o.1.to_bits())
            .count();
        mask = new_mask;
        printed = model.print(&mask, extent_nm);
        history.push(rms(&edge_placement_errors(target, &printed)));
    }
    OpcOutcome { mask, rms_epe_history: history, fragment_moves }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aerial::fnv_bits;

    fn dense_target(pitch: f64, lines: usize, offset: f64) -> (Vec<(f64, f64)>, f64) {
        let target: Vec<(f64, f64)> = (0..lines)
            .map(|i| {
                let x = offset + i as f64 * pitch;
                (x, x + pitch / 2.0)
            })
            .collect();
        let extent = offset * 2.0 + pitch * lines as f64;
        (target, extent)
    }

    #[test]
    fn opc_reduces_epe_on_printable_pattern() {
        let model = OpticalModel::default();
        let (target, extent) = dense_target(110.0, 8, 300.0);
        let out = run_opc(&model, &target, extent, &OpcConfig::default());
        let first = out.rms_epe_history[0];
        let last = out.final_rms_epe();
        assert!(
            last < first * 0.6,
            "OPC should cut RMS EPE substantially: {first:.2} -> {last:.2}"
        );
        assert!(last < 4.0, "corrected pattern should print within 4nm, got {last:.2}");
    }

    #[test]
    fn opc_cannot_rescue_sub_resolution_pitch() {
        let model = OpticalModel::default();
        let (target, extent) = dense_target(45.0, 8, 300.0);
        let out = run_opc(&model, &target, extent, &OpcConfig::default());
        assert!(
            out.final_rms_epe() > 8.0,
            "45nm pitch cannot single-expose even with OPC, got {:.2}",
            out.final_rms_epe()
        );
    }

    #[test]
    fn history_length_matches_iterations() {
        let model = OpticalModel::default();
        let (target, extent) = dense_target(130.0, 4, 200.0);
        let cfg = OpcConfig { iterations: 5, ..Default::default() };
        let out = run_opc(&model, &target, extent, &cfg);
        assert_eq!(out.rms_epe_history.len(), 6);
        assert_eq!(out.mask.len(), target.len());
    }

    #[test]
    fn mask_features_never_collapse() {
        let model = OpticalModel::default();
        let (target, extent) = dense_target(70.0, 6, 250.0);
        let out = run_opc(&model, &target, extent, &OpcConfig { iterations: 12, ..Default::default() });
        for &(a, b) in &out.mask {
            assert!(b - a >= 2.0, "mask feature collapsed: ({a}, {b})");
        }
    }

    /// `(mask digest, rms_epe_history digest, fragment_moves)` of one run.
    fn digest(target: &[(f64, f64)], extent: f64, cfg: &OpcConfig) -> (u64, u64, usize) {
        let out = run_opc(&OpticalModel::default(), target, extent, cfg);
        (
            fnv_bits(out.mask.iter().flat_map(|&(a, b)| [a, b])),
            fnv_bits(out.rms_epe_history.iter().copied()),
            out.fragment_moves,
        )
    }

    /// Dense 110 nm gratings of 10 and 24 lines, and `8_litho`'s
    /// six-fragment target at N10's relaxed pitch under the first attempt's
    /// config and the retry's `backoff()`: recorded while the convolution
    /// and the fragment loops were chunked over worker threads and every
    /// mask was printed twice per iteration.
    #[test]
    fn opc_is_pinned() {
        let node = eda_tech::Node::N10;
        let exposures = eda_tech::PatterningPlan::for_node(node).total_exposures();
        let (stage, stage_extent) = dense_target(node.spec().metal_pitch_nm * exposures as f64, 6, 200.0);
        let (g10, g10_extent) = dense_target(110.0, 10, 300.0);
        let (g24, g24_extent) = dense_target(110.0, 24, 300.0);
        let cfg = OpcConfig::default();
        let cases = [
            (&g10, g10_extent, cfg, (0xced2_0bf4_b77e_fda8, 0x2465_6847_6f3a_d698, 20)),
            (&g24, g24_extent, cfg, (0xa402_746b_f160_b9dc, 0x2465_6847_6f3a_d698, 48)),
            (&stage, stage_extent, cfg, (0x2b61_b5ab_0b2b_3153, 0xdc3b_9bb6_56fc_ecf2, 6)),
            (&stage, stage_extent, cfg.backoff(), (0x91f9_604a_de58_d06f, 0x6ba2_3c3c_0884_de1a, 17)),
        ];
        for (i, (target, extent, cfg, want)) in cases.into_iter().enumerate() {
            assert_eq!(digest(target, extent, &cfg), want, "case {i}");
        }
    }

    #[test]
    #[should_panic(expected = "OPC needs a target")]
    fn empty_target_panics() {
        let model = OpticalModel::default();
        let _ = run_opc(&model, &[], 100.0, &OpcConfig::default());
    }
}
