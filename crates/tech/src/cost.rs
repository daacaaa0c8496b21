//! Manufacturing cost models.
//!
//! Two of the panel's claims are cost claims:
//!
//! * Domic: *"moving from a 6-layer 130 nm A&M/S process variant to a 4-layer
//!   slashes 15–20 % from the cost"* — captured by the per-metal-layer share
//!   of wafer cost in [`CostModel::wafer_cost_with_layers`];
//! * Sawicki / Rossi: rising mask-set and R&D cost at emerging nodes —
//!   captured by [`MaskSetCost`].

use crate::node::Node;
use crate::patterning::PatterningPlan;

/// Wafer- and die-level cost model for a node.
///
/// # Examples
///
/// ```
/// use eda_tech::{CostModel, Node};
/// let m = CostModel::new(Node::N130);
/// let six = m.wafer_cost_with_layers(6);
/// let four = m.wafer_cost_with_layers(4);
/// let saving = 1.0 - four / six;
/// assert!(saving > 0.14 && saving < 0.21); // the panel's 15–20 %
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    node: Node,
    /// Fraction of baseline wafer cost attributable to each metal layer.
    /// Each metal layer is roughly one litho + etch + CMP module; BEOL is
    /// about half the step count of a mature process.
    metal_layer_cost_fraction: f64,
}

/// Cost of one die, with yield folded in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieCost {
    /// Good-die cost in dollars.
    pub usd: f64,
    /// Gross dies per wafer before yield.
    pub dies_per_wafer: f64,
    /// Estimated yield in [0, 1].
    pub yield_fraction: f64,
}

/// Mask-set (reticle) cost for a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskSetCost {
    /// Total mask-set cost in dollars.
    pub usd: f64,
    /// Number of mask steps, including multi-patterning splits of the
    /// critical layers.
    pub masks: u32,
}

impl CostModel {
    /// Builds the cost model for a node.
    pub fn new(node: Node) -> CostModel {
        CostModel { node, metal_layer_cost_fraction: 0.085 }
    }

    /// The node this model describes.
    pub fn node(&self) -> Node {
        self.node
    }

    /// Wafer cost if the design uses `layers` metal layers instead of the
    /// node-typical stack. Each layer added/removed shifts cost by the
    /// per-layer fraction of the baseline.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is zero.
    pub fn wafer_cost_with_layers(&self, layers: u32) -> f64 {
        assert!(layers > 0, "a routable process needs at least one metal layer");
        let base = self.node.spec();
        let delta = layers as f64 - base.typical_metal_layers as f64;
        base.wafer_cost_usd * (1.0 + delta * self.metal_layer_cost_fraction)
    }

    /// Good-die cost for a die of `die_mm2` with `layers` metal layers, using
    /// a negative-binomial yield model with defect density appropriate to the
    /// node's maturity.
    pub fn die_cost(&self, die_mm2: f64, layers: u32) -> DieCost {
        assert!(die_mm2 > 0.0, "die area must be positive");
        let wafer_area = std::f64::consts::PI * 150.0_f64.powi(2); // 300mm wafer
        // Edge loss: subtract one die-width ring.
        let dies_per_wafer = (wafer_area / die_mm2) * 0.92;
        // Defect density (per cm²): emerging nodes start dirtier.
        let d0 = if self.node.is_established() { 0.08 } else { 0.25 };
        let a_cm2 = die_mm2 / 100.0;
        let alpha = 3.0;
        let yield_fraction = (1.0 + d0 * a_cm2 / alpha).powf(-alpha);
        let usd = self.wafer_cost_with_layers(layers) / (dies_per_wafer * yield_fraction);
        DieCost { usd, dies_per_wafer, yield_fraction }
    }

    /// Mask-set cost, including the extra masks multi-patterning adds on the
    /// bottom metal layers.
    pub fn mask_set_cost(&self) -> MaskSetCost {
        let spec = self.node.spec();
        let plan = PatterningPlan::for_node(self.node);
        // The two tightest metal layers carry the full multi-patterning split.
        let extra = 2 * plan.total_exposures().saturating_sub(1);
        let masks = spec.mask_count + extra;
        // Per-mask cost rises steeply with node: ~$2k at 180nm to ~$120k at 5nm.
        let per_mask = 2_000.0 * (180.0 / spec.feature_nm).powf(1.15);
        MaskSetCost { usd: masks as f64 * per_mask, masks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_claim_layer_reduction_saves_15_to_20_percent_at_130nm() {
        // Domic: 6-layer -> 4-layer at 130nm slashes 15-20% of cost.
        let m = CostModel::new(Node::N130);
        let saving = 1.0 - m.wafer_cost_with_layers(4) / m.wafer_cost_with_layers(6);
        assert!((0.15 * 0.9..=0.20 * 1.1).contains(&saving), "saving = {saving:.3}");
    }

    #[test]
    fn die_cost_grows_with_area() {
        let m = CostModel::new(Node::N28);
        let small = m.die_cost(25.0, 8).usd;
        let big = m.die_cost(100.0, 8).usd;
        assert!(big > 4.0 * small, "yield loss should make big dies superlinear");
    }

    #[test]
    fn yield_is_a_probability() {
        for n in Node::ALL {
            let dc = CostModel::new(n).die_cost(80.0, n.spec().typical_metal_layers);
            assert!(dc.yield_fraction > 0.0 && dc.yield_fraction <= 1.0);
            assert!(dc.dies_per_wafer > 1.0);
        }
    }

    #[test]
    fn mask_set_cost_explodes_at_emerging_nodes() {
        let c180 = CostModel::new(Node::N180).mask_set_cost();
        let c10 = CostModel::new(Node::N10).mask_set_cost();
        assert!(c10.usd > 30.0 * c180.usd, "mask cost ratio {}", c10.usd / c180.usd);
        // Multi-patterning adds masks beyond the baseline count at 10nm.
        assert!(c10.masks > Node::N10.spec().mask_count);
        // ...but not at single-patterned 28nm.
        let c28 = CostModel::new(Node::N28).mask_set_cost();
        assert_eq!(c28.masks, Node::N28.spec().mask_count);
    }

    #[test]
    fn fewer_layers_always_cheaper() {
        for n in Node::ALL {
            let m = CostModel::new(n);
            let t = n.spec().typical_metal_layers;
            assert!(m.wafer_cost_with_layers(t - 1) < m.wafer_cost_with_layers(t));
        }
    }

    #[test]
    #[should_panic(expected = "at least one metal layer")]
    fn zero_layers_panics() {
        let _ = CostModel::new(Node::N28).wafer_cost_with_layers(0);
    }
}
