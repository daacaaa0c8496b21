//! Lithographic hotspot detection: bridging and necking.
//!
//! Sawicki: computational lithography must deliver "viable yield" — which
//! operationally means scanning the layout for patterns that print wrong.
//! Two classic failure modes are checked here by simulating 1-D
//! cross-sections through feature pairs with the aerial-image model:
//!
//! * **bridge** — the space between two neighbouring features prints shut;
//! * **neck** — a feature prints narrower than a survivable fraction of its
//!   drawn width.
//!
//! Multi-patterning is the fix the panel describes: after decomposition,
//! same-mask neighbours sit at least a full pitch apart, and the per-mask
//! hotspot scan comes back clean.

use crate::aerial::OpticalModel;
use crate::coloring::Decomposition;
use crate::geom::{Layout, Rect};

/// A detected printability hotspot.
#[derive(Debug, Clone, PartialEq)]
pub enum Hotspot {
    /// Features `a` and `b` (indices into the layout) print merged.
    Bridge {
        /// First feature index.
        a: usize,
        /// Second feature index.
        b: usize,
        /// Drawn gap between them, nm.
        gap_nm: f64,
    },
    /// Feature `index` prints narrower than `printed_nm` against a drawn
    /// width of `drawn_nm`.
    Neck {
        /// Feature index.
        index: usize,
        /// Printed width, nm.
        printed_nm: f64,
        /// Drawn width, nm.
        drawn_nm: f64,
    },
    /// Feature `index` fails to print at all.
    Missing {
        /// Feature index.
        index: usize,
    },
}

/// A printed width below this fraction of drawn width is a neck.
const NECK_FRACTION: f64 = 0.6;

/// Hotspot-scan configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotspotConfig {
    /// Neighbour search radius, nm (pairs farther apart are safe).
    pub search_radius_nm: f64,
}

impl Default for HotspotConfig {
    fn default() -> Self {
        HotspotConfig { search_radius_nm: 200.0 }
    }
}

/// The width of a feature's 1-D cross-section perpendicular to its long
/// axis.
fn cross_section(r: &Rect) -> f64 {
    if r.width() >= r.height() {
        r.height()
    } else {
        r.width()
    }
}

/// Whether two features are roughly parallel neighbours (long axes aligned).
fn parallel(a: &Rect, b: &Rect) -> bool {
    (a.width() >= a.height()) == (b.width() >= b.height())
}

/// Scans a single-exposure layout for printability hotspots.
pub fn find_hotspots(layout: &Layout, model: &OpticalModel, cfg: &HotspotConfig) -> Vec<Hotspot> {
    let mut out = Vec::new();
    let n = layout.features.len();
    // Per-feature isolated print check (necking/missing).
    for (i, r) in layout.features.iter().enumerate() {
        let width = cross_section(r);
        let margin = 4.0 * model.sigma_nm() + 50.0;
        let mask = vec![(margin, margin + width)];
        let printed = model.print(&mask, 2.0 * margin + width);
        match printed.first() {
            None => out.push(Hotspot::Missing { index: i }),
            Some(&(p0, p1)) => {
                let w = p1 - p0;
                if w < NECK_FRACTION * width {
                    out.push(Hotspot::Neck { index: i, printed_nm: w, drawn_nm: width });
                }
            }
        }
    }
    // Pairwise bridge check for parallel neighbours.
    for i in 0..n {
        for j in i + 1..n {
            let (a, b) = (&layout.features[i], &layout.features[j]);
            let gap = a.gap(b);
            if gap <= 0.0 || gap > cfg.search_radius_nm || !parallel(a, b) {
                continue;
            }
            let (wa, wb) = (cross_section(a), cross_section(b));
            let margin = 4.0 * model.sigma_nm() + 50.0;
            let mask = vec![
                (margin, margin + wa),
                (margin + wa + gap, margin + wa + gap + wb),
            ];
            let extent = 2.0 * margin + wa + gap + wb;
            let printed = model.print(&mask, extent);
            // Fewer than two printed intervals means the pair merged (one
            // blob) or proximity destroyed both — either way, a bridge-class
            // failure between these neighbours.
            if printed.len() < 2 {
                out.push(Hotspot::Bridge { a: i, b: j, gap_nm: gap });
            }
        }
    }
    out
}

/// Scans each mask of a decomposition separately; returns hotspots per mask.
///
/// The panel's multi-patterning story in one function: conflicts that would
/// bridge in a single exposure land on different masks and disappear.
pub fn find_hotspots_per_mask(
    deco: &Decomposition,
    model: &OpticalModel,
    cfg: &HotspotConfig,
) -> Vec<Vec<Hotspot>> {
    let masks = deco.masks.max(1);
    (0..masks)
        .map(|m| {
            let sub = Layout {
                features: deco
                    .layout
                    .features
                    .iter()
                    .zip(&deco.colors)
                    .filter(|&(_, &c)| c == m)
                    .map(|(r, _)| *r)
                    .collect(),
            };
            find_hotspots(&sub, model, cfg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::decompose;

    fn model() -> OpticalModel {
        OpticalModel::default()
    }

    #[test]
    fn isolated_wide_lines_are_clean() {
        let layout = Layout::line_array(4, 300.0, 2000.0);
        let hs = find_hotspots(&layout, &model(), &HotspotConfig::default());
        assert!(hs.is_empty(), "300nm pitch prints clean, got {hs:?}");
    }

    #[test]
    fn dense_lines_bridge() {
        // 56nm pitch: 28nm lines with 28nm spaces — far below the
        // single-exposure floor, spaces print shut.
        let layout = Layout::line_array(4, 56.0, 2000.0);
        let hs = find_hotspots(&layout, &model(), &HotspotConfig::default());
        assert!(
            hs.iter().any(|h| matches!(h, Hotspot::Bridge { .. } | Hotspot::Missing { .. } | Hotspot::Neck { .. })),
            "56nm pitch must produce printability hotspots"
        );
    }

    #[test]
    fn narrow_feature_necks_or_vanishes() {
        let mut layout = Layout::new();
        layout.features.push(Rect::new(0.0, 0.0, 2000.0, 18.0)); // 18nm line
        let hs = find_hotspots(&layout, &model(), &HotspotConfig::default());
        assert!(
            hs.iter().any(|h| matches!(h, Hotspot::Neck { .. } | Hotspot::Missing { .. })),
            "an 18nm drawn line cannot print true: {hs:?}"
        );
    }

    #[test]
    fn decomposition_clears_bridge_hotspots() {
        // 34nm lines with 16nm gaps: the narrow space prints shut in one
        // exposure (bridge). After double patterning, same-mask neighbours
        // sit 66nm apart and the space opens cleanly.
        let mut layout = Layout::new();
        for i in 0..6 {
            let x = i as f64 * 50.0;
            layout.features.push(Rect::new(x, 0.0, x + 34.0, 2000.0));
        }
        let single = find_hotspots(&layout, &model(), &HotspotConfig::default());
        let bridges_before =
            single.iter().filter(|h| matches!(h, Hotspot::Bridge { .. })).count();
        assert!(bridges_before > 0, "16nm gaps must bridge in a single exposure: {single:?}");
        let deco = decompose(&layout, 2, 80.0, 0);
        assert!(deco.legal, "alternating lines are 2-colourable");
        let per_mask = find_hotspots_per_mask(&deco, &model(), &HotspotConfig::default());
        let bridges_after: usize = per_mask
            .iter()
            .flatten()
            .filter(|h| matches!(h, Hotspot::Bridge { .. }))
            .count();
        assert_eq!(bridges_after, 0, "decomposed masks must print bridge-free: {per_mask:?}");
    }

    #[test]
    fn search_radius_limits_pairs() {
        let layout = Layout::line_array(3, 500.0, 1000.0);
        let tight = HotspotConfig { search_radius_nm: 10.0 };
        let hs = find_hotspots(&layout, &model(), &tight);
        assert!(hs.is_empty());
    }
}
