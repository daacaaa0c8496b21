//! Rossi's format-dualism complaint, demonstrated and remedied: the same
//! library characterization delivered in two different syntaxes (the
//! liberty-like and clf dialects), converted losslessly, driving the same
//! synthesis — with the result *formally verified* by BDD-based equivalence
//! checking (the "consistently verified throughout the design flow" ask).
//!
//! ```text
//! cargo run --example library_dualism
//! ```

use eda::logic::{
    check_equivalence, synthesize, EcVerdict, MapGoal, SynthesisEffort, SynthesisOptions,
};
use eda::netlist::{generate, liberty, Library};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The technology provider characterizes once...
    let golden = Library::generic();

    // ...but must deliver twice (Rossi: "we had to duplicate the effort for
    // our IP deliveries").
    let as_liberty = liberty::write_liberty(&golden);
    let as_clf = liberty::write_clf(&golden);
    println!(
        "one library, two deliveries: liberty {} bytes, clf {} bytes",
        as_liberty.len(),
        as_clf.len()
    );

    // The remedy: one data model, provable lossless conversion.
    let converted = liberty::clf_to_liberty(&as_clf)?;
    assert_eq!(as_liberty, converted);
    println!("clf -> liberty conversion is byte-identical: the dualism is pure overhead");

    // Both deliveries drive identical synthesis results.
    let design = generate::alu(4)?;
    let lib_a = liberty::parse_liberty(&as_liberty)?;
    let lib_b = liberty::parse_clf(&as_clf)?;
    let out_a = synthesize(&design, lib_a, SynthesisEffort::Advanced2016, MapGoal::Area, &SynthesisOptions::default())?;
    let out_b = synthesize(&design, lib_b, SynthesisEffort::Advanced2016, MapGoal::Area, &SynthesisOptions::default())?;
    println!(
        "synthesis from either delivery: {:.1} um2 vs {:.1} um2",
        out_a.area_um2, out_b.area_um2
    );

    // And the mapped result is *formally* equivalent to the RTL — BDD-based
    // combinational equivalence, not just simulation.
    match check_equivalence(&design, &out_a.netlist, &[], &[], 1 << 20)? {
        EcVerdict::Equivalent => println!("formal EC: mapped netlist ≡ source design"),
        EcVerdict::Counterexample(cex) => {
            println!("formal EC found a bug! distinguishing input: {cex:?}")
        }
        EcVerdict::Inconclusive => println!("formal EC inconclusive (budget)"),
    }
    Ok(())
}
