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

use crate::aig::{Aig, AigError};
use crate::map::{map_aig, map_naive, MapError};
use eda_netlist::memo::fnv1a;
use eda_netlist::{Library, Netlist, SubstageMemo};
use std::borrow::Cow;
use std::sync::Arc;

/// Default bound on the rewrite fixpoint iteration in the advanced script.
pub const DEFAULT_REWRITE_PASSES: usize = 6;

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

/// How much the advanced script rewrites, and where its AIG passes may
/// replay from. The memo never changes what a given `rewrite_passes`
/// produces: the outcome is bit-identical with or without one. Synthesis
/// runs serially.
#[derive(Clone, Copy)]
pub struct SynthesisOptions<'a> {
    /// Bound on the rewrite fixpoint iteration of the advanced script.
    pub rewrite_passes: usize,
    /// Persistent sub-stage store each AIG pass may replay from — a hit is
    /// bit-identical to the recompute it stands in for.
    pub memo: Option<&'a dyn SubstageMemo>,
}

impl Default for SynthesisOptions<'_> {
    /// [`DEFAULT_REWRITE_PASSES`], no memo.
    fn default() -> Self {
        SynthesisOptions { rewrite_passes: DEFAULT_REWRITE_PASSES, memo: None }
    }
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
/// use eda_logic::{synthesize, SynthesisEffort, SynthesisOptions};
/// use eda_netlist::{generate, Library};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = generate::ripple_carry_adder(8)?;
/// let opts = SynthesisOptions::default();
/// let baseline = synthesize(
///     &design,
///     Library::nand_inv_2006(),
///     SynthesisEffort::Baseline2006,
///     &opts,
/// )?;
/// let advanced = synthesize(
///     &design,
///     Library::generic(),
///     SynthesisEffort::Advanced2016,
///     &opts,
/// )?;
/// assert!(advanced.area_um2 < baseline.area_um2);
/// # Ok(())
/// # }
/// ```
pub fn synthesize(
    input: &Netlist,
    lib: Arc<Library>,
    effort: SynthesisEffort,
    opts: &SynthesisOptions<'_>,
) -> Result<SynthesisOutcome, SynthesisError> {
    let (aig, boundary) = Aig::from_netlist(input)?;
    let before = aig.num_ands();
    let (after, outcome, passes) = match effort {
        SynthesisEffort::Baseline2006 => {
            let m = map_naive(&aig, &boundary, lib)?;
            (before, m, Vec::new())
        }
        SynthesisEffort::Advanced2016 => {
            let (opt, passes) = optimize_aig(&aig, opts.rewrite_passes, opts.memo);
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

/// The memo kinds the optimization script stores pass results under: the
/// opening balance, the bounded rewrite fixpoint, and the closing balance.
/// A rewrite entry is keyed on the FNV of `"aig.rw|<input aig digest>"`, a
/// balance entry on `"<kind>|rev<BALANCE_REV>|<input aig digest>"`, so a
/// pass hits whenever its *own* input recurs — across runs, designs, and
/// script lengths.
pub const AIG_MEMO_KINDS: [&str; 3] = ["aig.balpre", "aig.rw", "aig.balpost"];

/// Revision of [`Aig::balance`], folded into every cache key that addresses
/// a balance result (the `aig.balpre` / `aig.balpost` memo entries here, the
/// `1_synthesis` stage entries in `eda-core`). Bump it whenever the same
/// input graph can balance differently than under the previous revision, so
/// a store written before the change recomputes instead of replaying the
/// old results. Revision 1 (implicit, no field in the key) let a supergate
/// descend through shared nodes and so duplicated them.
pub const BALANCE_REV: u32 = 2;

/// The advanced-flow AIG script: `balance; rewrite*; balance` with the
/// rewrite fixpoint bounded by `rewrite_passes` (the default script uses
/// [`DEFAULT_REWRITE_PASSES`]), keeping each pass only if it does not
/// regress node count. Returns the optimized graph plus a per-pass
/// provenance trace; both are pure functions of the input and the bound.
///
/// With a `memo`, every pass first consults it keyed on its input digest; a
/// hit replays the recorded keep/break decision and result graph, a miss
/// computes and stores. Results are bit-identical with or without the memo.
pub fn optimize_aig(
    aig: &Aig,
    rewrite_passes: usize,
    memo: Option<&dyn SubstageMemo>,
) -> (Aig, Vec<AigPass>) {
    let mut passes = Vec::with_capacity(rewrite_passes + 2);
    // The input is borrowed until a pass result is kept.
    let mut cur = Cow::Borrowed(aig);

    let (pass, next) = run_pass(memo, "aig.balpre", "balance", &cur, Aig::balance, |cur, cand| {
        !(cand.num_ands() > cur.num_ands() && cand.depth() >= cur.depth())
    });
    passes.push(pass);
    if let Some(n) = next {
        cur = Cow::Owned(n);
    }

    // Rewrite to a fixpoint (bounded), keeping only non-regressing passes.
    for _ in 0..rewrite_passes {
        let (pass, next) = run_pass(memo, "aig.rw", "rewrite", &cur, Aig::rewrite, |cur, cand| {
            cand.num_ands() < cur.num_ands()
        });
        passes.push(pass);
        match next {
            Some(n) => cur = Cow::Owned(n),
            None => break,
        }
    }

    let (pass, next) = run_pass(memo, "aig.balpost", "balance", &cur, Aig::balance, |cur, cand| {
        cand.num_ands() <= cur.num_ands() || cand.depth() < cur.depth()
    });
    passes.push(pass);
    if let Some(n) = next {
        cur = Cow::Owned(n);
    }
    (cur.into_owned(), passes)
}

/// One script pass over `cur`: replays the memoized result for this input
/// when there is one, otherwise computes `transform(cur)`, keeps it if
/// `keep(cur, candidate)`, and records the outcome. Returns the pass record
/// and the kept result. The input is digested once per pass, and only when
/// a memo is bound.
fn run_pass(
    memo: Option<&dyn SubstageMemo>,
    kind: &str,
    name: &'static str,
    cur: &Aig,
    transform: impl FnOnce(&Aig) -> Aig,
    keep: impl FnOnce(&Aig, &Aig) -> bool,
) -> (AigPass, Option<Aig>) {
    let memo = memo.map(|m| (m, pass_key(kind, cur.digest())));
    if let Some(hit) = memo.and_then(|(m, key)| load_pass(&m.load(kind, key)?)) {
        return hit;
    }
    let cand = transform(cur);
    let kept = keep(cur, &cand);
    let pass =
        AigPass { name, nodes_before: cur.num_ands(), nodes_after: cand.num_ands(), kept };
    let result = kept.then_some(cand);
    if let Some((m, key)) = memo {
        m.store(kind, key, &pass_payload(&pass, result.as_ref()));
    }
    (pass, result)
}

/// Memo key of a `kind` pass over an input graph with `digest`: FNV of the
/// kind, [`BALANCE_REV`] for the two balance kinds, and the digest. Rewrite
/// keys carry no revision: rewrite computes what it always did.
fn pass_key(kind: &str, digest: u64) -> u64 {
    let text = match kind {
        "aig.rw" => format!("{kind}|{digest:016x}"),
        _ => format!("{kind}|rev{BALANCE_REV}|{digest:016x}"),
    };
    fnv1a(text.bytes())
}

/// Parses and validates one memoized pass payload. `None` means malformed —
/// the caller recomputes, as on a miss.
fn load_pass(payload: &str) -> Option<(AigPass, Option<Aig>)> {
    let (head, rest) = payload.split_once('\n')?;
    let mut f = head.split(' ');
    if f.next()? != "aigpass" || f.next()? != "v1" {
        return None;
    }
    let name = match f.next()? {
        "balance" => "balance",
        "rewrite" => "rewrite",
        _ => return None,
    };
    let nodes_before = f.next()?.parse().ok()?;
    let nodes_after = f.next()?.parse().ok()?;
    let kept = f.next()? == "1";
    let has_body = f.next()? == "1";
    if f.next().is_some() || kept != has_body {
        return None;
    }
    let body = if has_body { Some(Aig::from_store_text(rest)?) } else { None };
    Some((AigPass { name, nodes_before, nodes_after, kept }, body))
}

/// The memo payload of one pass result: a one-line header (pass meta + keep
/// decision) followed by the result graph when the pass was kept.
fn pass_payload(pass: &AigPass, result: Option<&Aig>) -> String {
    let mut payload = format!(
        "aigpass v1 {} {} {} {} {}\n",
        pass.name,
        pass.nodes_before,
        pass.nodes_after,
        pass.kept as u8,
        result.is_some() as u8
    );
    if let Some(r) = result {
        payload.push_str(&r.to_store_text());
    }
    payload
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_netlist::generate;

    fn advanced(d: &Netlist) -> SynthesisOutcome {
        let opts = SynthesisOptions::default();
        synthesize(d, Library::generic(), SynthesisEffort::Advanced2016, &opts).unwrap()
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
        let opts = SynthesisOptions::default();
        let mut total_base = 0.0;
        let mut total_adv = 0.0;
        for d in &designs {
            let base = synthesize(
                d,
                Library::nand_inv_2006(),
                SynthesisEffort::Baseline2006,
                &opts,
            )
            .unwrap();
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
        let (opt, _) = optimize_aig(&aig, DEFAULT_REWRITE_PASSES, None);
        assert!(opt.num_ands() <= aig.num_ands() + aig.num_ands() / 10);
        let pats: Vec<u64> =
            (0..aig.num_pis()).map(|i| 0xCBF2_9CE4_8422_2325u64.rotate_left(i as u32)).collect();
        assert_eq!(aig.simulate64(&pats), opt.simulate64(&pats));
    }

    struct CountingMemo {
        map: std::cell::RefCell<std::collections::HashMap<(String, u64), String>>,
        hits: std::cell::Cell<usize>,
        misses: std::cell::Cell<usize>,
    }

    impl CountingMemo {
        fn new() -> CountingMemo {
            CountingMemo {
                map: std::cell::RefCell::new(std::collections::HashMap::new()),
                hits: std::cell::Cell::new(0),
                misses: std::cell::Cell::new(0),
            }
        }
    }

    impl SubstageMemo for CountingMemo {
        fn load(&self, kind: &str, key: u64) -> Option<String> {
            let hit = self.map.borrow().get(&(kind.to_string(), key)).cloned();
            match &hit {
                Some(_) => self.hits.set(self.hits.get() + 1),
                None => self.misses.set(self.misses.get() + 1),
            }
            hit
        }
        fn store(&self, kind: &str, key: u64, payload: &str) {
            self.map.borrow_mut().insert((kind.to_string(), key), payload.to_string());
        }
    }

    #[test]
    fn memoized_script_replays_bit_identically() {
        let d = generate::switch_fabric(3, 3).unwrap();
        let (aig, _) = Aig::from_netlist(&d).unwrap();
        let (plain, plain_passes) = optimize_aig(&aig, DEFAULT_REWRITE_PASSES, None);

        let memo = CountingMemo::new();
        let (cold, cold_passes) =
            optimize_aig(&aig, DEFAULT_REWRITE_PASSES, Some(&memo));
        assert_eq!(cold.digest(), plain.digest(), "memo writes must not perturb the script");
        assert_eq!(cold_passes, plain_passes);
        assert_eq!(memo.hits.get(), 0);
        let cold_misses = memo.misses.get();
        assert_eq!(cold_misses, cold_passes.len());

        let (warm, warm_passes) =
            optimize_aig(&aig, DEFAULT_REWRITE_PASSES, Some(&memo));
        assert_eq!(warm.digest(), plain.digest(), "warm replay is bit-identical");
        assert_eq!(warm_passes, plain_passes);
        assert_eq!(memo.hits.get(), cold_passes.len(), "every pass replays");
        assert_eq!(memo.misses.get(), cold_misses, "no new misses when warm");
    }

    #[test]
    fn shortened_script_replays_its_prefix_from_the_memo() {
        let d = generate::switch_fabric(3, 3).unwrap();
        let (aig, _) = Aig::from_netlist(&d).unwrap();
        let memo = CountingMemo::new();
        let (_, full_passes) = optimize_aig(&aig, DEFAULT_REWRITE_PASSES, Some(&memo));
        memo.hits.set(0);

        // One fewer rewrite pass: everything the edit does not touch — the
        // opening balance and the surviving rewrite prefix — hits.
        let shorter = DEFAULT_REWRITE_PASSES - 1;
        let (edited, edited_passes) = optimize_aig(&aig, shorter, Some(&memo));
        let (ref_edited, ref_passes) = optimize_aig(&aig, shorter, None);
        assert_eq!(edited.digest(), ref_edited.digest(), "memo never changes QoR");
        assert_eq!(edited_passes, ref_passes);
        assert!(memo.hits.get() >= 1, "the edit must warm-replay at least one pass");
        assert!(edited_passes.len() <= full_passes.len());
    }

    /// The pass key as revision 1 computed it for every kind: no balance
    /// revision field.
    fn pass_key_rev1(kind: &str, digest: u64) -> u64 {
        fnv1a(format!("{kind}|{digest:016x}").bytes())
    }

    #[test]
    fn balance_entries_of_the_duplicating_revision_are_never_addressed() {
        let (aig, _) = Aig::from_netlist(&generate::array_multiplier(4).unwrap()).unwrap();
        let digest = aig.digest();
        let balanced = aig.balance();
        // A store the parent filled: each entry sits under the old address
        // and would parse. A balance lookup never reaches it.
        let stale = AigPass { name: "balance", nodes_before: aig.num_ands(), nodes_after: 1, kept: true };
        for kind in ["aig.balpre", "aig.balpost"] {
            assert_ne!(pass_key(kind, digest), pass_key_rev1(kind, digest));
            let memo = CountingMemo::new();
            memo.store(kind, pass_key_rev1(kind, digest), &pass_payload(&stale, Some(&aig)));
            let (pass, kept) =
                run_pass(Some(&memo), kind, "balance", &aig, Aig::balance, |_, _| true);
            assert_eq!(memo.hits.get(), 0, "{kind}: the old address is never read");
            assert_eq!(pass.nodes_after, balanced.num_ands(), "{kind}");
            assert_eq!(kept.map(|g| g.digest()), Some(balanced.digest()), "{kind}");
        }
        // Rewrite computes what it always did, so its entries keep their
        // address and still replay.
        let stale = AigPass { name: "rewrite", ..stale };
        let memo = CountingMemo::new();
        memo.store("aig.rw", pass_key_rev1("aig.rw", digest), &pass_payload(&stale, Some(&aig)));
        let (pass, _) = run_pass(Some(&memo), "aig.rw", "rewrite", &aig, Aig::rewrite, |_, _| true);
        assert_eq!((memo.hits.get(), pass), (1, stale), "a rewrite entry replays");
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
