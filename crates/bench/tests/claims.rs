//! Every panel claim keeps its shape: the EXPERIMENTS.md Match column,
//! asserted. The claims run one after another in this one test, so C9's
//! measured refine wall never shares the CPU with another claim. Release
//! only (~2 s; ~17 s unoptimized): `scripts/check.sh` runs
//! `cargo test --release -p eda-bench --test claims`.

use eda_bench::claims;

#[test]
#[cfg_attr(debug_assertions, ignore = "C9 checks a measured release-build wall clock; run in release")]
fn every_claim_has_its_shape() {
    let mut failed = Vec::new();
    for id in claims::IDS {
        let claim = claims::run(id, 0, None).unwrap_or_else(|e| panic!("claim {id}: {e}"));
        assert_eq!(claim.id, id);
        if let Err(why) = &claim.shape {
            failed.push(format!("{id}: {why}"));
        }
    }
    assert!(failed.is_empty(), "claims off their shape:\n{}", failed.join("\n"));
}
