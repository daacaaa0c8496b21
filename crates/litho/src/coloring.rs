//! Multi-patterning layout decomposition: conflict graph construction,
//! DSATUR/backtracking k-colouring, and stitch insertion.
//!
//! Domic (claim C4): *"starting at 20 nanometers, it has become impossible to
//! draw the copper interconnects of an IC without double-, triple-, or even
//! quadruple-patterning... advanced EDA has made multi-patterning automated,
//! hiding and waiving its complexity."* This module is that automation.

use crate::geom::{Layout, Rect};

/// The conflict graph of a layout under a same-mask pitch rule.
#[derive(Debug, Clone, PartialEq)]
pub struct ConflictGraph {
    /// Number of features (nodes).
    pub nodes: usize,
    /// Adjacency lists.
    adj: Vec<Vec<u32>>,
}

impl ConflictGraph {
    /// Builds the graph under a single-exposure *pitch* limit: two features
    /// conflict when their edge gap is below `limit_pitch_nm` minus half of
    /// each feature's line width (equivalently, their line pitch is below
    /// the limit). This matches the panel's "minimum single-patterning pitch
    /// of approximately 80 nanometers".
    pub fn build(layout: &Layout, limit_pitch_nm: f64) -> ConflictGraph {
        let mut g = ConflictGraph { nodes: 0, adj: Vec::with_capacity(layout.features.len()) };
        for n in 0..layout.features.len() {
            g.push_node(&layout.features[..=n], limit_pitch_nm);
        }
        g
    }

    /// Appends the node of `features.last()`, testing it against every
    /// earlier feature. Adjacency lists stay in ascending index order.
    fn push_node(&mut self, features: &[Rect], limit_pitch_nm: f64) {
        let (new, earlier) = features.split_last().expect("a feature to append");
        let n = self.nodes;
        debug_assert_eq!(earlier.len(), n, "the graph covers every earlier feature");
        let mut mine = Vec::new();
        for (i, lo) in earlier.iter().enumerate() {
            if conflicts(lo, new, limit_pitch_nm) {
                self.adj[i].push(n as u32);
                mine.push(i as u32);
            }
        }
        self.adj.push(mine);
        self.nodes += 1;
    }

    /// Removes node `v` and renumbers the nodes above it down by one — what
    /// `Vec::remove(v)` does to the feature list the graph mirrors.
    fn remove_node(&mut self, v: usize) {
        self.adj.remove(v);
        self.nodes -= 1;
        let v = v as u32;
        for list in &mut self.adj {
            list.retain_mut(|w| {
                let keep = *w != v;
                if *w > v {
                    *w -= 1;
                }
                keep
            });
        }
    }

    /// Number of conflict edges.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(|a| a.len()).sum::<usize>() / 2
    }

    /// Neighbours of a node.
    pub fn neighbours(&self, v: usize) -> &[u32] {
        &self.adj[v]
    }

    /// Whether the graph contains an odd cycle (i.e. is not 2-colourable).
    pub fn has_odd_cycle(&self) -> bool {
        let mut color = vec![-1i8; self.nodes];
        for start in 0..self.nodes {
            if color[start] != -1 {
                continue;
            }
            color[start] = 0;
            let mut stack = vec![start];
            while let Some(v) = stack.pop() {
                for &w in &self.adj[v] {
                    let w = w as usize;
                    if color[w] == -1 {
                        color[w] = 1 - color[v];
                        stack.push(w);
                    } else if color[w] == color[v] {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// DSATUR greedy colouring; returns per-node colours (count may exceed
    /// the chromatic number).
    pub fn dsatur(&self) -> Vec<u32> {
        let n = self.nodes;
        let mut color = vec![u32::MAX; n];
        // The next node is the uncoloured one of maximum saturation, ties by
        // degree, then by the highest index. Degree and index never change,
        // so rank the nodes by them once and keep, per saturation level, a
        // bitset over ranks: the choice is the top bit of the top level.
        let mut by_rank: Vec<usize> = (0..n).collect();
        by_rank.sort_by_key(|&v| self.adj[v].len());
        let mut rank = vec![0usize; n];
        for (r, &v) in by_rank.iter().enumerate() {
            rank[v] = r;
        }
        // A node takes the lowest colour its neighbours lack, which is at
        // most its degree; so is its saturation.
        let max_degree = self.adj.iter().map(Vec::len).max().unwrap_or(0);
        let color_words = (max_degree + 1) / 64 + 1;
        let mut seen = vec![0u64; n * color_words];
        let mut saturation = vec![0usize; n];
        let rank_words = n.div_ceil(64);
        let mut level = vec![0u64; (max_degree + 1) * rank_words];
        for r in 0..n {
            level[r / 64] |= 1 << (r % 64);
        }
        let mut top = 0usize;
        for _ in 0..n {
            let r = loop {
                let row = &level[top * rank_words..(top + 1) * rank_words];
                if let Some(word) = row.iter().rposition(|&bits| bits != 0) {
                    break word * 64 + 63 - row[word].leading_zeros() as usize;
                }
                top -= 1;
            };
            level[top * rank_words + r / 64] &= !(1 << (r % 64));
            let v = by_rank[r];
            let row = &seen[v * color_words..(v + 1) * color_words];
            let word = row.iter().position(|&bits| bits != !0).expect("a colour below degree + 1 is free");
            let c = word * 64 + (!row[word]).trailing_zeros() as usize;
            color[v] = c as u32;
            for &w in &self.adj[v] {
                let w = w as usize;
                let cell = &mut seen[w * color_words + c / 64];
                if *cell & (1 << (c % 64)) != 0 {
                    continue;
                }
                *cell |= 1 << (c % 64);
                saturation[w] += 1;
                if color[w] == u32::MAX {
                    let (s, r) = (saturation[w], rank[w]);
                    level[(s - 1) * rank_words + r / 64] &= !(1 << (r % 64));
                    level[s * rank_words + r / 64] |= 1 << (r % 64);
                    top = top.max(s);
                }
            }
        }
        color
    }

    /// Exact k-colourability via backtracking with a node budget; `None`
    /// means the budget ran out (treat as failure).
    pub fn k_color(&self, k: u32, budget: usize) -> Option<Option<Vec<u32>>> {
        let n = self.nodes;
        let mut color = vec![u32::MAX; n];
        // Order by degree descending for better pruning.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(self.adj[v].len()));
        // Steps the search may still take: one per call, `budget + 1` in all.
        let mut left = budget.saturating_add(1);
        // `used` = colours taken by `order[..pos]`, carried down instead of
        // recounted from `color` at every step.
        fn rec(
            g: &ConflictGraph,
            order: &[usize],
            pos: usize,
            used: u32,
            k: u32,
            color: &mut Vec<u32>,
            left: &mut usize,
        ) -> Option<bool> {
            if *left == 0 {
                return None;
            }
            *left -= 1;
            if pos == order.len() {
                return Some(true);
            }
            let v = order[pos];
            // Symmetry breaking: limit to used colours + 1.
            for c in 0..k.min(used + 1) {
                if g.adj[v].iter().any(|&w| color[w as usize] == c) {
                    continue;
                }
                color[v] = c;
                match rec(g, order, pos + 1, used.max(c + 1), k, color, left) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => return None,
                }
                color[v] = u32::MAX;
            }
            Some(false)
        }
        match rec(self, &order, 0, 0, k, &mut color, &mut left) {
            None => None,
            Some(true) => Some(Some(color)),
            Some(false) => Some(None),
        }
    }
}

/// The same-mask conflict test. `lo` is the lower-indexed feature of the
/// pair: `limit − hw(lo) − hw(hi)` is not associative in `f64`, so the order
/// is part of the result.
fn conflicts(lo: &Rect, hi: &Rect, limit_pitch_nm: f64) -> bool {
    let half_width = |r: &Rect| -> f64 { r.width().min(r.height()) / 2.0 };
    let spacing_limit = (limit_pitch_nm - half_width(lo) - half_width(hi)).max(1.0);
    lo.gap(hi) < spacing_limit
}

/// Result of decomposing a layout into masks.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    /// The (possibly stitched) layout actually coloured.
    pub layout: Layout,
    /// Mask assignment per feature of `layout`.
    pub colors: Vec<u32>,
    /// Number of masks used.
    pub masks: u32,
    /// Stitches inserted (features split).
    pub stitches: usize,
    /// Whether the decomposition is conflict-free.
    pub legal: bool,
}

/// Decomposes a layout for `k`-patterning with up to `max_stitches` stitch
/// insertions. Features that cannot be coloured are split at legal stitch
/// points and recoloured.
pub fn decompose(layout: &Layout, k: u32, limit_pitch_nm: f64, max_stitches: usize) -> Decomposition {
    let mut work = layout.clone();
    // Kept in step with `work` across stitches: a stitch costs the gap tests
    // of its two halves, not a rebuild.
    let mut g = ConflictGraph::build(&work, limit_pitch_nm);
    let mut stitches = 0usize;
    loop {
        // Try exact first (small budget), fall back to DSATUR.
        if let Some(Some(colors)) = g.k_color(k, 200_000) {
            let masks = colors.iter().copied().max().map_or(0, |m| m + 1);
            return Decomposition { layout: work, colors, masks, stitches, legal: true };
        }
        let colors = g.dsatur();
        let masks = colors.iter().copied().max().map_or(0, |m| m + 1);
        if masks <= k {
            return Decomposition { layout: work, colors, masks, stitches, legal: true };
        }
        if stitches >= max_stitches {
            // Report the best (illegal) colouring, clamped to k masks.
            let legal = false;
            let clamped: Vec<u32> = colors.iter().map(|&c| c.min(k - 1)).collect();
            return Decomposition { layout: work, colors: clamped, masks: k, stitches, legal };
        }
        // Split the largest feature that received an over-budget colour.
        let victim = colors
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c >= k)
            .max_by(|a, b| {
                let ra = &work.features[a.0];
                let rb = &work.features[b.0];
                (ra.width() * ra.height())
                    .partial_cmp(&(rb.width() * rb.height()))
                    .expect("areas are finite")
            })
            .map(|(i, _)| i)
            .expect("masks > k implies an over-budget feature");
        let r: Rect = work.features.remove(victim);
        g.remove_node(victim);
        let (a, b) = r.split(limit_pitch_nm / 16.0);
        for half in [a, b] {
            work.features.push(half);
            g.push_node(&work.features, limit_pitch_nm);
        }
        stitches += 1;
    }
}

/// Minimum masks (per DSATUR upper bound tightened with exact search) for a
/// layout — the empirical analogue of [`eda_tech::PatterningPlan`].
pub fn required_masks(layout: &Layout, limit_pitch_nm: f64) -> u32 {
    let g = ConflictGraph::build(layout, limit_pitch_nm);
    let upper = g.dsatur().iter().copied().max().map_or(0, |m| m + 1);
    // Tighten from below.
    for k in 1..upper {
        if let Some(Some(_)) = g.k_color(k, 100_000) {
            return k;
        }
    }
    upper
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_array_chromatic_number_matches_pitch_model() {
        // Same-mask limit 80nm: pitch 64 -> 2 masks, pitch 40 -> 2, pitch 30 -> 3.
        for (pitch, expect) in [(100.0, 1u32), (64.0, 2), (40.0, 2), (30.0, 3), (24.0, 4)] {
            let l = Layout::line_array(12, pitch, 2000.0);
            let masks = required_masks(&l, 80.0);
            assert_eq!(masks, expect, "pitch {pitch}");
        }
    }

    #[test]
    fn dsatur_produces_proper_coloring() {
        let l = Layout::random_wires(60, 48.0, 3000.0, 3);
        let g = ConflictGraph::build(&l, 80.0);
        let colors = g.dsatur();
        for v in 0..g.nodes {
            for &w in g.neighbours(v) {
                assert_ne!(colors[v], colors[w as usize], "conflict edge shares a colour");
            }
        }
    }

    /// DSATUR as it was before the saturation bitsets and the heap: a
    /// `BTreeSet` per node and a scan for the next node. The oracle for
    /// [`ConflictGraph::dsatur`]'s tie-break.
    fn dsatur_by_scan(g: &ConflictGraph) -> Vec<u32> {
        let n = g.nodes;
        let mut color = vec![u32::MAX; n];
        let mut sat: Vec<std::collections::BTreeSet<u32>> = vec![Default::default(); n];
        for _ in 0..n {
            let v = (0..n)
                .filter(|&v| color[v] == u32::MAX)
                .max_by_key(|&v| (sat[v].len(), g.adj[v].len()))
                .expect("an uncoloured node remains");
            let mut c = 0u32;
            while sat[v].contains(&c) {
                c += 1;
            }
            color[v] = c;
            for &w in &g.adj[v] {
                sat[w as usize].insert(c);
            }
        }
        color
    }

    /// `decompose` as it was before the graph was maintained across
    /// stitches: rebuild it and recolour by scan after every split.
    fn decompose_by_rebuild(layout: &Layout, k: u32, limit_pitch_nm: f64, max_stitches: usize) -> Decomposition {
        let mut work = layout.clone();
        let mut stitches = 0usize;
        loop {
            let g = ConflictGraph::build(&work, limit_pitch_nm);
            if let Some(Some(colors)) = g.k_color(k, 200_000) {
                let masks = colors.iter().copied().max().map_or(0, |m| m + 1);
                return Decomposition { layout: work, colors, masks, stitches, legal: true };
            }
            let colors = dsatur_by_scan(&g);
            let masks = colors.iter().copied().max().map_or(0, |m| m + 1);
            if masks <= k {
                return Decomposition { layout: work, colors, masks, stitches, legal: true };
            }
            if stitches >= max_stitches {
                let clamped: Vec<u32> = colors.iter().map(|&c| c.min(k - 1)).collect();
                return Decomposition { layout: work, colors: clamped, masks: k, stitches, legal: false };
            }
            let victim = colors
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c >= k)
                .max_by(|a, b| {
                    let (ra, rb) = (&work.features[a.0], &work.features[b.0]);
                    (ra.width() * ra.height()).partial_cmp(&(rb.width() * rb.height())).unwrap()
                })
                .map(|(i, _)| i)
                .unwrap();
            let r = work.features.remove(victim);
            let (a, b) = r.split(limit_pitch_nm / 16.0);
            work.features.push(a);
            work.features.push(b);
            stitches += 1;
        }
    }

    #[test]
    fn dsatur_matches_the_scan_on_colours_and_tie_breaks() {
        for (wires, pitch, seed) in [(60, 48.0, 3), (90, 32.0, 5), (40, 64.0, 8), (1, 48.0, 1)] {
            let g = ConflictGraph::build(&Layout::random_wires(wires, pitch, pitch * 40.0, seed), 80.0);
            assert_eq!(g.dsatur(), dsatur_by_scan(&g), "{wires} wires at pitch {pitch}");
        }
        // Regular arrays are all ties.
        let g = ConflictGraph::build(&Layout::contact_array(6, 50.0), 120.0);
        assert_eq!(g.dsatur(), dsatur_by_scan(&g));
    }

    #[test]
    fn incremental_decompose_matches_rebuilding_after_every_stitch() {
        let mut stitched = 0;
        for (wires, pitch, seed) in [(30usize, 32.0, 1u64), (36, 32.0, 71), (28, 48.0, 4)] {
            let layout = Layout::random_wires(wires, pitch, pitch * 40.0, seed);
            for k in [2, 3, 4] {
                for budget in [0, wires / 2, wires] {
                    let got = decompose(&layout, k, 80.0, budget);
                    let want = decompose_by_rebuild(&layout, k, 80.0, budget);
                    assert_eq!(got, want, "{wires} wires seed {seed}, k={k}, budget {budget}");
                    stitched += got.stitches;
                }
            }
        }
        assert!(stitched > 100, "the sweep must exercise the stitch loop, got {stitched} stitches");
    }

    #[test]
    fn graph_kept_across_stitches_equals_a_rebuild() {
        let mut layout = Layout::random_wires(40, 32.0, 1280.0, 9);
        let mut g = ConflictGraph::build(&layout, 80.0);
        // First, last and interior victims.
        for victim in [0, 40, 17, 3, 41] {
            let r = layout.features.remove(victim);
            g.remove_node(victim);
            let (a, b) = r.split(5.0);
            for half in [a, b] {
                layout.features.push(half);
                g.push_node(&layout.features, 80.0);
            }
            assert_eq!(g, ConflictGraph::build(&layout, 80.0), "after splitting feature {victim}");
        }
    }

    #[test]
    fn kcolor_budget_exhaustion_is_unchanged() {
        // Outcomes recorded before `used` was carried down the recursion:
        // this graph needs six masks, and proving that five are too few
        // takes more than 5 000 steps and fewer than 200 000.
        let g = ConflictGraph::build(&Layout::random_wires(60, 32.0, 1280.0, 1), 80.0);
        assert_eq!(g.k_color(5, 5_000), None);
        assert_eq!(g.k_color(5, 200_000), Some(None));
        assert!(matches!(g.k_color(6, 100), Some(Some(_))));
        // The step a search stops at is part of the contract: ten nodes take
        // one step each plus the terminal one.
        let line = ConflictGraph::build(&Layout::line_array(10, 60.0, 1000.0), 80.0);
        assert_eq!(line.k_color(2, 9), None);
        assert!(matches!(line.k_color(2, 10), Some(Some(_))));
    }

    #[test]
    fn odd_cycle_detection() {
        // Three mutually-close contacts form a triangle: odd cycle.
        let mut l = Layout::new();
        l.features.push(Rect::new(0.0, 0.0, 20.0, 20.0));
        l.features.push(Rect::new(40.0, 0.0, 60.0, 20.0));
        l.features.push(Rect::new(20.0, 35.0, 40.0, 55.0));
        let g = ConflictGraph::build(&l, 50.0);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_odd_cycle());
        // Two features only: even.
        let mut l2 = Layout::new();
        l2.features.push(Rect::new(0.0, 0.0, 20.0, 20.0));
        l2.features.push(Rect::new(40.0, 0.0, 60.0, 20.0));
        assert!(!ConflictGraph::build(&l2, 50.0).has_odd_cycle());
    }

    #[test]
    fn exact_kcolor_agrees_with_bipartiteness() {
        let l = Layout::line_array(10, 60.0, 1000.0);
        let g = ConflictGraph::build(&l, 80.0);
        let two = g.k_color(2, 100_000).expect("budget generous");
        assert_eq!(two.is_some(), !g.has_odd_cycle());
    }

    #[test]
    fn stitches_resolve_triangle_conflicts() {
        // A triangle needs 3 masks; with stitching, 2 masks become feasible
        // when one feature is split so its halves take different masks.
        let mut l = Layout::new();
        l.features.push(Rect::new(0.0, 0.0, 200.0, 20.0)); // long wire (splittable)
        l.features.push(Rect::new(0.0, 50.0, 90.0, 70.0));
        l.features.push(Rect::new(110.0, 50.0, 200.0, 70.0));
        // All three pairwise within 80nm? wire-to-upper gaps = 30nm; upper pair gap = 20nm.
        let d = decompose(&l, 2, 80.0, 4);
        assert!(d.stitches >= 1, "triangle needs a stitch for 2 masks");
        if d.legal {
            let g = ConflictGraph::build(&d.layout, 80.0);
            for v in 0..g.nodes {
                for &w in g.neighbours(v) {
                    assert_ne!(d.colors[v], d.colors[w as usize]);
                }
            }
            assert!(d.masks <= 2);
        }
    }

    #[test]
    fn decompose_reports_illegal_when_hopeless() {
        // A 5-clique of contacts cannot be 2-coloured even with stitches off.
        let l = Layout::contact_array(3, 50.0);
        let d = decompose(&l, 2, 200.0, 0);
        assert!(!d.legal);
        assert_eq!(d.masks, 2, "clamped to the mask budget");
    }

    #[test]
    fn required_masks_monotone_in_spacing() {
        let l = Layout::contact_array(4, 60.0);
        let loose = required_masks(&l, 61.0);
        let tight = required_masks(&l, 130.0);
        assert!(tight >= loose);
    }
}
