//! Synthesis flow presets: the decade-old baseline versus the advanced flow.
//!
//! [`synthesize`] is the crate's front door: netlist in, optimized mapped
//! netlist out. Two presets bracket the panel's decade:
//!
//! * [`SynthesisEffort::Baseline2006`] — build the AIG, decompose every node
//!   into NAND2/INV. No restructuring, no cut matching. This is the strawman
//!   Domic says the industry has improved on by ~30 %.
//! * [`SynthesisEffort::Advanced2016`] — balance + iterated cut-based
//!   refactoring on the AIG, then phase-complete cut mapping onto the full
//!   library for area.

use crate::aig::{Aig, AigError, IsopCovers};
use crate::map::{map_aig, map_naive, MapError};
use eda_netlist::{Library, Netlist};
use std::borrow::Cow;
use std::sync::Arc;

/// Bound on the rewrite fixpoint iteration in the advanced script. What
/// [`optimize_aig`] returns depends on it, and the `1_synthesis` key holds
/// it only through [`BALANCE_REV`]: changing it must bump that revision.
pub const REWRITE_PASSES: usize = 6;

/// Synthesis preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SynthesisEffort {
    /// 2006-era baseline: no optimization, NAND2/INV decomposition.
    Baseline2006,
    /// 2016-era flow: AIG optimization + library-aware mapping.
    Advanced2016,
}

/// Errors from synthesis.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthesisError {
    /// The input netlist could not be converted to an AIG.
    Aig(AigError),
    /// Technology mapping failed.
    Map(MapError),
}

impl std::fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthesisError::Aig(e) => write!(f, "aig construction failed: {e}"),
            SynthesisError::Map(e) => write!(f, "mapping failed: {e}"),
        }
    }
}

impl std::error::Error for SynthesisError {}

impl From<AigError> for SynthesisError {
    fn from(e: AigError) -> Self {
        SynthesisError::Aig(e)
    }
}

impl From<MapError> for SynthesisError {
    fn from(e: MapError) -> Self {
        SynthesisError::Map(e)
    }
}

/// Result of a synthesis run with before/after metrics.
#[derive(Debug, Clone)]
pub struct SynthesisOutcome {
    /// The mapped netlist.
    pub netlist: Netlist,
    /// AND nodes in the unoptimized AIG.
    pub aig_nodes_before: usize,
    /// AND nodes after optimization (equals `before` for the baseline).
    pub aig_nodes_after: usize,
    /// Mapped cell area in µm².
    pub area_um2: f64,
    /// Estimated critical path in ps.
    pub delay_ps: f64,
    /// Mapped combinational cell count.
    pub cells: usize,
    /// Per-pass AIG optimization trace (empty for the 2006 baseline, which
    /// maps the raw AIG).
    pub passes: Vec<AigPass>,
    /// The mapper's [`MapOutcome::cone_visits`](crate::MapOutcome::cone_visits).
    pub cone_visits: u64,
    /// The mapper's [`MapOutcome::cuts_enumerated`](crate::MapOutcome::cuts_enumerated).
    pub cuts_enumerated: u64,
}

/// Synthesizes `input` onto `lib` at the given effort. The advanced effort
/// maps for area ([`map_aig`]'s area-flow selection).
///
/// # Errors
///
/// Fails if the input contains non-synthesizable cells, or if the library
/// lacks the primitives mapping needs (inverter, NAND2/AND2, DFF for
/// sequential designs).
///
/// # Examples
///
/// ```
/// use eda_logic::{synthesize, SynthesisEffort};
/// use eda_netlist::{generate, Library};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = generate::ripple_carry_adder(8)?;
/// let baseline = synthesize(&design, Library::nand_inv_2006(), SynthesisEffort::Baseline2006)?;
/// let advanced = synthesize(&design, Library::generic(), SynthesisEffort::Advanced2016)?;
/// assert!(advanced.area_um2 < baseline.area_um2);
/// # Ok(())
/// # }
/// ```
pub fn synthesize(
    input: &Netlist,
    lib: Arc<Library>,
    effort: SynthesisEffort,
) -> Result<SynthesisOutcome, SynthesisError> {
    let (aig, boundary) = Aig::from_netlist(input)?;
    let before = aig.num_ands();
    let (after, outcome, passes) = match effort {
        SynthesisEffort::Baseline2006 => {
            let m = map_naive(&aig, &boundary, lib)?;
            (before, m, Vec::new())
        }
        SynthesisEffort::Advanced2016 => {
            let (opt, passes) = optimize_aig(&aig);
            // Only the input graph's node count outlives the script: the
            // mapper runs with one graph live, not two.
            drop(aig);
            let m = map_aig(&opt, &boundary, lib)?;
            (opt.num_ands(), m, passes)
        }
    };
    Ok(SynthesisOutcome {
        netlist: outcome.netlist,
        aig_nodes_before: before,
        aig_nodes_after: after,
        area_um2: outcome.area_um2,
        delay_ps: outcome.delay_ps,
        cells: outcome.cells,
        passes,
        cone_visits: outcome.cone_visits,
        cuts_enumerated: outcome.cuts_enumerated,
    })
}

/// One pass of the AIG optimization script, as recorded for QoR provenance:
/// node counts around the pass and whether its result was kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AigPass {
    /// Pass name (`"balance"` or `"rewrite"`).
    pub name: &'static str,
    /// AND nodes going in.
    pub nodes_before: usize,
    /// AND nodes the pass produced (kept or not).
    pub nodes_after: usize,
    /// Whether the pass result was accepted by the keep-if-not-regressing
    /// rule.
    pub kept: bool,
}

/// Revision of the advanced script's result, folded into the cache key that
/// addresses it (the `1_synthesis` stage entries in `eda-core`). Bump it
/// whenever the same input graph can optimize differently than under the
/// previous revision — a change to [`Aig::balance`] or to
/// [`REWRITE_PASSES`] — so a store written before the change recomputes
/// instead of replaying the old results. Revision 1 (implicit, no field in
/// the key) let a supergate descend through shared nodes and so duplicated
/// them.
pub const BALANCE_REV: u32 = 2;

/// The advanced-flow AIG script: `balance; rewrite*; balance` with the
/// rewrite fixpoint bounded by [`REWRITE_PASSES`], keeping each pass only if
/// it does not regress node count. Returns the optimized graph plus a
/// per-pass provenance trace; both are pure functions of the input.
pub fn optimize_aig(aig: &Aig) -> (Aig, Vec<AigPass>) {
    let mut passes = Vec::with_capacity(REWRITE_PASSES + 2);
    // The input is borrowed until a pass result is kept.
    let mut cur = Cow::Borrowed(aig);

    let (pass, next) = run_pass("balance", &cur, Aig::balance, |cur, cand| {
        !(cand.num_ands() > cur.num_ands() && cand.depth() >= cur.depth())
    });
    passes.push(pass);
    if let Some(n) = next {
        cur = Cow::Owned(n);
    }

    // Rewrite to a fixpoint (bounded), keeping only non-regressing passes;
    // the passes share one cover table.
    let mut covers = IsopCovers::new();
    for _ in 0..REWRITE_PASSES {
        let rewrite = |aig: &Aig| aig.rewrite_with(&mut covers);
        let (pass, next) = run_pass("rewrite", &cur, rewrite, |cur, cand| {
            cand.num_ands() < cur.num_ands()
        });
        passes.push(pass);
        match next {
            Some(n) => cur = Cow::Owned(n),
            None => break,
        }
    }

    let (pass, next) = run_pass("balance", &cur, Aig::balance, |cur, cand| {
        cand.num_ands() <= cur.num_ands() || cand.depth() < cur.depth()
    });
    passes.push(pass);
    if let Some(n) = next {
        cur = Cow::Owned(n);
    }
    (cur.into_owned(), passes)
}

/// One script pass over `cur`: computes `transform(cur)`, keeps it if
/// `keep(cur, candidate)`, and records the outcome. Returns the pass record
/// and the kept result.
fn run_pass(
    name: &'static str,
    cur: &Aig,
    transform: impl FnOnce(&Aig) -> Aig,
    keep: impl FnOnce(&Aig, &Aig) -> bool,
) -> (AigPass, Option<Aig>) {
    let cand = transform(cur);
    let kept = keep(cur, &cand);
    let pass =
        AigPass { name, nodes_before: cur.num_ands(), nodes_after: cand.num_ands(), kept };
    (pass, kept.then_some(cand))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_netlist::generate;
    use eda_netlist::memo::fnv1a;

    fn advanced(d: &Netlist) -> SynthesisOutcome {
        synthesize(d, Library::generic(), SynthesisEffort::Advanced2016).unwrap()
    }

    fn check_equiv(a: &Netlist, b: &Netlist) {
        let k = a.primary_inputs().len();
        let pats: Vec<u64> =
            (0..k).map(|i| 0xD6E8_FEB8_6659_FD93u64.wrapping_mul(i as u64 + 1)).collect();
        let (o1, s1) = a.simulate64(&pats, &vec![0; a.flops().len()]);
        let (o2, s2) = b.simulate64(&pats, &vec![0; b.flops().len()]);
        assert_eq!(o1, o2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn advanced_beats_baseline_on_suite() {
        let designs: Vec<Netlist> = vec![
            generate::ripple_carry_adder(8).unwrap(),
            generate::array_multiplier(4).unwrap(),
            generate::parity_tree(16).unwrap(),
            // Seed pins a representative random cloud for the vendored
            // deterministic PRNG (third_party/rand).
            generate::random_logic(generate::RandomLogicConfig {
                gates: 400,
                seed: 7,
                ..Default::default()
            })
            .unwrap(),
        ];
        let mut total_base = 0.0;
        let mut total_adv = 0.0;
        for d in &designs {
            let base = synthesize(d, Library::nand_inv_2006(), SynthesisEffort::Baseline2006).unwrap();
            let adv = advanced(d);
            check_equiv(d, &base.netlist);
            check_equiv(d, &adv.netlist);
            total_base += base.area_um2;
            total_adv += adv.area_um2;
        }
        let gain = 1.0 - total_adv / total_base;
        assert!(gain > 0.20, "advanced flow should save >20% area, got {:.1}%", gain * 100.0);
    }

    #[test]
    fn optimize_never_grows_much() {
        // Seed pins a representative random cloud for the vendored
        // deterministic PRNG (third_party/rand).
        let d = generate::random_logic(generate::RandomLogicConfig {
            gates: 350,
            seed: 7,
            ..Default::default()
        })
        .unwrap();
        let (aig, _) = Aig::from_netlist(&d).unwrap();
        let (opt, _) = optimize_aig(&aig);
        assert!(opt.num_ands() <= aig.num_ands() + aig.num_ands() / 10);
        let pats: Vec<u64> =
            (0..aig.num_pis()).map(|i| 0xCBF2_9CE4_8422_2325u64.rotate_left(i as u32)).collect();
        assert_eq!(aig.simulate64(&pats), opt.simulate64(&pats));
    }

    #[test]
    fn rewrite_and_mapped_netlist_are_pinned() {
        // The rewritten graphs were recorded at the commit before the shared
        // cut kernel and the serial claim walk replaced the two private
        // enumerators and the per-block cone closures. The mapped netlists
        // of the multiplier and the mesh were re-recorded once when balance
        // stopped duplicating shared nodes (revision 2); the fabric has no
        // shared supergate and kept its digest. Neither may move by a byte,
        // flat or hierarchical.
        let pinned = [
            (generate::switch_fabric(4, 3).unwrap(), 0xb926_fdf7_4b6f_2fa0u64, 0x48bc_cd27_0ecd_b5cbu64),
            (generate::array_multiplier(8).unwrap(), 0x1c6f_9971_3761_d53b, 0xcd3e_5c95_6eba_3ef5),
            (generate::scale_mesh(2_000, 1).unwrap(), 0x2d2b_d6bd_0b60_1949, 0xf99b_aaa6_aa65_6778),
        ];
        for (design, rewritten, mapped) in pinned {
            let (aig, _) = Aig::from_netlist(&design).unwrap();
            assert_eq!(aig.rewrite().digest(), rewritten, "{} rewrite", design.name());
            let out = advanced(&design);
            let text = eda_netlist::codec::to_text(&out.netlist);
            assert_eq!(fnv1a(text.bytes()), mapped, "{} mapped", design.name());
        }
    }

    #[test]
    fn sequential_designs_synthesize() {
        let d = generate::switch_fabric(4, 3).unwrap();
        let adv = advanced(&d);
        assert_eq!(adv.netlist.flops().len(), d.flops().len());
        check_equiv(&d, &adv.netlist);
    }
}
