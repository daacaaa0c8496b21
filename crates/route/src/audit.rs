//! The independent pass auditor: after a routing pass, is the grid the sum
//! of the committed paths, and is every path a legal polyline in canonical
//! corner form?
//!
//! Bit-identity across runs proves the schedule deterministic, not right —
//! a router that double-counts an edge or leaves a rip-up victim's old
//! demand behind does so identically every time. This check shares no code
//! with the bookkeeping it audits (`commit`, [`RoutingGrid::add_run`], the
//! canonical commit loop) beyond reading each wire through [`Wires::get`]:
//! demand is rebuilt edge by edge from each run into fresh vectors with its
//! own edge indexing, the search window is recomputed from the pins, and
//! overflow is re-summed from the rebuilt demand.

use crate::grid::{GCell, RoutingGrid};
use crate::router::{TwoPin, Wires};

/// Checks one pass: every connection has a path that starts at its source,
/// ends at its target and is a canonical corner list — each consecutive
/// pair of corners on one row or column and apart, no two consecutive runs
/// heading the same way — with every corner inside its search window (the
/// pins' bounding box grown by `window_margin`, or the whole grid when that
/// is `0`; a run between two corners inside a rectangle stays inside it);
/// and per-edge demand recomputed edge by edge from all paths equals the
/// grid's usage, total usage and total overflow.
pub(crate) fn audit_pass(
    grid: &RoutingGrid,
    pairs: &[TwoPin],
    wires: &Wires,
    window_margin: u32,
) -> Result<(), String> {
    let (w, h) = (grid.width, grid.height);
    if wires.len() != pairs.len() {
        return Err(format!("{} wires for {} connections", wires.len(), pairs.len()));
    }
    let reach = if window_margin == 0 { w.max(h) } else { window_margin };
    // Edge (x, y)→(x+1, y) at `y * (w - 1) + x`; (x, y)→(x, y+1) at `y * w + x`.
    let mut across = vec![0u32; ((w - 1) * h) as usize];
    let mut up = vec![0u32; (w * (h - 1)) as usize];
    for (i, tp) in pairs.iter().enumerate() {
        let path = wires.get(i).ok_or_else(|| format!("connection {i} has no path"))?;
        if path.first() != Some(&tp.src) || path.last() != Some(&tp.dst) {
            return Err(format!("connection {i}: path does not join {:?} to {:?}", tp.src, tp.dst));
        }
        let lo_x = tp.src.x.min(tp.dst.x).saturating_sub(reach);
        let lo_y = tp.src.y.min(tp.dst.y).saturating_sub(reach);
        let hi_x = tp.src.x.max(tp.dst.x).saturating_add(reach).min(w - 1);
        let hi_y = tp.src.y.max(tp.dst.y).saturating_add(reach).min(h - 1);
        let outside = |c: &&GCell| c.x < lo_x || c.x > hi_x || c.y < lo_y || c.y > hi_y;
        if let Some(c) = path.iter().find(outside) {
            return Err(format!("connection {i}: {c:?} is outside its search window"));
        }
        // The previous run's heading: (horizontal, increasing).
        let mut last: Option<(bool, bool)> = None;
        for run in path.windows(2) {
            let (a, b) = (run[0], run[1]);
            let heading = match (a.x == b.x, a.y == b.y) {
                (true, true) => return Err(format!("connection {i}: zero-length run at {a:?}")),
                (false, true) => (true, b.x > a.x),
                (true, false) => (false, b.y > a.y),
                (false, false) => {
                    return Err(format!("connection {i}: {a:?} -> {b:?} is not axis-aligned"))
                }
            };
            if last == Some(heading) {
                return Err(format!("connection {i}: runs into and out of {a:?} head the same way"));
            }
            last = Some(heading);
            if heading.0 {
                for x in a.x.min(b.x)..a.x.max(b.x) {
                    across[(a.y * (w - 1) + x) as usize] += 1;
                }
            } else {
                for y in a.y.min(b.y)..a.y.max(b.y) {
                    up[(y * w + a.x) as usize] += 1;
                }
            }
        }
    }
    let mut usage = 0u64;
    let mut overflow = 0u64;
    let mut tally = |demand: u32, held: u32, cap: u32, (x, y): (u32, u32), (nx, ny): (u32, u32)| {
        if demand != held {
            return Err(format!(
                "edge ({x},{y})-({nx},{ny}): paths demand {demand}, grid holds {held}"
            ));
        }
        usage += u64::from(demand);
        overflow += u64::from(demand.saturating_sub(cap));
        Ok(())
    };
    for y in 0..h {
        for x in 0..w - 1 {
            let demand = across[(y * (w - 1) + x) as usize];
            tally(demand, grid.usage_h(x, y), grid.cap_h, (x, y), (x + 1, y))?;
        }
    }
    for y in 0..h - 1 {
        for x in 0..w {
            tally(up[(y * w + x) as usize], grid.usage_v(x, y), grid.cap_v, (x, y), (x, y + 1))?;
        }
    }
    if usage != grid.total_usage() || overflow != grid.total_overflow() {
        return Err(format!(
            "totals: paths give usage {usage} overflow {overflow}, grid reports {} and {}",
            grid.total_usage(),
            grid.total_overflow()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maze::Path;
    use crate::rules::RuleDeck;

    fn cell(x: u32, y: u32) -> GCell {
        GCell::new(x, y)
    }

    /// A one-connection store holding `path` as given, canonical or not.
    fn stored(path: &[GCell]) -> Wires {
        let mut wires = Wires::new(1);
        wires.set(0, path);
        wires
    }

    /// An L-shaped connection committed by hand, plus the knobs each test
    /// turns to break it.
    fn fixture() -> (RoutingGrid, Vec<TwoPin>, Path) {
        let mut grid = RoutingGrid::new(8, 8, &RuleDeck::simple(2));
        for (a, b) in [(cell(1, 1), cell(2, 1)), (cell(2, 1), cell(3, 1)), (cell(3, 1), cell(3, 2))] {
            grid.add_usage(a, b, 1);
        }
        let pair = TwoPin { src: cell(1, 1), dst: cell(3, 2), fanout: 2 };
        (grid, vec![pair], vec![cell(1, 1), cell(3, 1), cell(3, 2)])
    }

    #[test]
    fn a_consistent_pass_is_accepted() {
        let (grid, pairs, path) = fixture();
        assert_eq!(audit_pass(&grid, &pairs, &stored(&path), 0), Ok(()));
        assert_eq!(audit_pass(&grid, &pairs, &stored(&path), 1), Ok(()));
    }

    #[test]
    fn leaked_and_missing_demand_are_caught() {
        let (mut grid, pairs, path) = fixture();
        grid.add_usage(cell(5, 5), cell(5, 6), 1);
        let err = audit_pass(&grid, &pairs, &stored(&path), 0).unwrap_err();
        assert!(err.contains("paths demand 0, grid holds 1"), "{err}");
        let (mut grid, pairs, path) = fixture();
        grid.add_usage(cell(1, 1), cell(2, 1), -1);
        let err = audit_pass(&grid, &pairs, &stored(&path), 0).unwrap_err();
        assert!(err.contains("paths demand 1, grid holds 0"), "{err}");
    }

    #[test]
    fn illegal_paths_are_caught() {
        let broken = |edit: fn(&mut Path)| {
            let (grid, pairs, mut path) = fixture();
            edit(&mut path);
            audit_pass(&grid, &pairs, &stored(&path), 0).unwrap_err()
        };
        let (grid, pairs, _) = fixture();
        assert!(audit_pass(&grid, &pairs, &Wires::new(1), 0).unwrap_err().contains("no path"));
        assert!(broken(|p| {
            p.pop();
        }).contains("does not join"));
        // (1,1) -> (3,2) in one step.
        assert!(broken(|p| {
            p.remove(1);
        }).contains("not axis-aligned"));
        let err = broken(|p| p.insert(1, cell(3, 1)));
        assert!(err.contains("zero-length run at GCell { x: 3, y: 1 }"), "{err}");
        // The same edges, but (2,1) is no corner: the wire is not canonical.
        let err = broken(|p| p.insert(1, cell(2, 1)));
        assert!(err.contains("runs into and out of GCell { x: 2, y: 1 } head the same way"), "{err}");
    }

    #[test]
    fn a_reversal_is_a_corner() {
        // (1,1) -> (3,1) -> (2,1) -> (2,2): right, back left, then up.
        let mut grid = RoutingGrid::new(8, 8, &RuleDeck::simple(2));
        grid.add_run(cell(1, 1), cell(3, 1), 1);
        grid.add_run(cell(3, 1), cell(2, 1), 1);
        grid.add_run(cell(2, 1), cell(2, 2), 1);
        let pairs = vec![TwoPin { src: cell(1, 1), dst: cell(2, 2), fanout: 2 }];
        let wires = stored(&[cell(1, 1), cell(3, 1), cell(2, 1), cell(2, 2)]);
        assert_eq!(audit_pass(&grid, &pairs, &wires, 0), Ok(()));
    }

    #[test]
    fn a_detour_outside_the_window_is_caught() {
        let mut grid = RoutingGrid::new(8, 8, &RuleDeck::simple(2));
        // (1,1) -> (3,1) by way of row 4: three rows beyond the pins.
        let path = vec![cell(1, 1), cell(1, 4), cell(3, 4), cell(3, 1)];
        for r in path.windows(2) {
            grid.add_run(r[0], r[1], 1);
        }
        let pairs = vec![TwoPin { src: cell(1, 1), dst: cell(3, 1), fanout: 2 }];
        let wires = stored(&path);
        assert_eq!(audit_pass(&grid, &pairs, &wires, 0), Ok(()), "margin 0 is the whole grid");
        assert_eq!(audit_pass(&grid, &pairs, &wires, 3), Ok(()));
        let err = audit_pass(&grid, &pairs, &wires, 2).unwrap_err();
        assert!(err.contains("outside its search window"), "{err}");
    }
}
