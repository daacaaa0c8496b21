//! Property-based round-trip coverage for the netlist checkpoint codec
//! (`eda::netlist::codec`), the layer every flow checkpoint depends on.
//!
//! Three families of properties:
//! 1. `from_text(to_text(n))` reconstructs `n` exactly for arbitrary
//!    generated netlists, and the text form is a fixed point.
//! 2. Truncated or byte-corrupted checkpoint text never panics: it either
//!    parses (corruption can land in a don't-care position, e.g. inside a
//!    name) or returns a typed [`CodecError`].
//! 3. Specific malformed inputs map to the *right* typed error variant.

use eda::netlist::codec::{self, CodecError};
use eda::netlist::{generate, InstId, Netlist};
use proptest::prelude::*;

/// An arbitrary netlist via the seeded generator: proptest drives the seed
/// and shape, the generator guarantees structural validity.
fn arb_netlist(seed: u64, gates: usize, flops: bool) -> Netlist {
    generate::random_logic(generate::RandomLogicConfig {
        inputs: 8,
        outputs: 4,
        gates,
        flop_fraction: if flops { 0.2 } else { 0.0 },
        seed,
    })
    .expect("generator emits a valid netlist")
}

/// Field-for-field identity through the public accessors (the serialized
/// fixed point in `roundtrip_identity` covers the rest byte-for-byte).
fn assert_identical(a: &Netlist, b: &Netlist) {
    assert_eq!(a.name(), b.name());
    assert_eq!(a.library().name(), b.library().name());
    assert_eq!(a.block_names(), b.block_names());
    assert_eq!(a.primary_inputs(), b.primary_inputs());
    assert_eq!(a.primary_outputs(), b.primary_outputs());
    assert_eq!(a.num_instances(), b.num_instances());
    assert_eq!(a.num_nets(), b.num_nets());
    for ((ia, inst_a), (ib, inst_b)) in a.instances().zip(b.instances()) {
        assert_eq!(ia, ib);
        assert_eq!(inst_a, inst_b);
    }
    for ((na, net_a), (nb, net_b)) in a.nets().zip(b.nets()) {
        assert_eq!(na, nb);
        assert_eq!(net_a, net_b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Encode/decode is the identity on arbitrary netlists, and encoding is
    /// a fixed point (`to_text . from_text . to_text == to_text`).
    #[test]
    fn roundtrip_identity(seed in 0u64..1000, gates in 10usize..120, flops in any::<bool>()) {
        let n = arb_netlist(seed, gates, flops);
        let text = codec::to_text(&n);
        let back = codec::from_text(&text).expect("round trip parses");
        assert_identical(&n, &back);
        prop_assert_eq!(codec::to_text(&back), text);
    }

    /// Truncating a checkpoint anywhere never panics. (A truncation can
    /// still parse when it cuts exactly at a record boundary the header
    /// counts happen to cover, so the only universal guarantee is no-panic
    /// plus a typed error for strict prefixes that drop whole records.)
    #[test]
    fn truncation_never_panics(seed in 0u64..200, cut_pm in 0u32..1000) {
        let n = arb_netlist(seed, 40, true);
        let text = codec::to_text(&n);
        let cut = (text.len() as u64 * u64::from(cut_pm) / 1000) as usize;
        // The format is ASCII for generated designs, but stay on a char
        // boundary so the slice itself cannot panic for exotic names.
        let cut = (0..=cut).rev().find(|&i| text.is_char_boundary(i)).unwrap_or(0);
        let _ = codec::from_text(&text[..cut]);
    }

    /// Flipping one byte to an arbitrary printable character never panics;
    /// whatever parses is structurally in-bounds by construction.
    #[test]
    fn single_byte_corruption_never_panics(
        seed in 0u64..200,
        pos_pm in 0u32..1000,
        replacement in 0x20u8..0x7f,
    ) {
        let n = arb_netlist(seed, 40, false);
        let mut bytes = codec::to_text(&n).into_bytes();
        let pos = (bytes.len() as u64 * u64::from(pos_pm) / 1000) as usize;
        let pos = pos.min(bytes.len() - 1);
        bytes[pos] = replacement;
        let corrupted = String::from_utf8_lossy(&bytes).into_owned();
        if let Ok(parsed) = codec::from_text(&corrupted) {
            // from_text bounds-checks every index, so anything it accepts
            // must be safe to traverse.
            for (_, inst) in parsed.instances() {
                let _ = parsed.net(inst.output());
            }
        }
    }
}

#[test]
fn empty_and_garbage_inputs_are_parse_errors() {
    for bad in ["", "garbage", "eda-netlist v2\n", "eda-netlist v1"] {
        match codec::from_text(bad) {
            Err(CodecError::Parse { line, .. }) => assert!(line >= 1),
            other => panic!("{bad:?} parsed as {other:?}"),
        }
    }
}

#[test]
fn unknown_library_and_cell_are_typed_errors() {
    let n = arb_netlist(7, 20, false);
    let text = codec::to_text(&n);
    let lib_line = text
        .lines()
        .find(|l| l.starts_with("library "))
        .expect("checkpoint names its library");
    let with_bad_lib = text.replacen(lib_line, "library mystery_pdk", 1);
    assert_eq!(
        codec::from_text(&with_bad_lib).err(),
        Some(CodecError::UnknownLibrary("mystery_pdk".into()))
    );

    let cell = n.library().cell(n.instance(InstId::from_index(0)).cell()).name.clone();
    let with_bad_cell = text.replacen(&format!(" {cell} "), " warp_core ", 1);
    assert_eq!(
        codec::from_text(&with_bad_cell).err(),
        Some(CodecError::UnknownCell("warp_core".into()))
    );
}

#[test]
fn a_repeated_net_name_is_a_typed_error() {
    // `add_net` never builds two nets of one name, so only a hand-edited
    // body holds one: give the second net record the first one's name.
    let n = arb_netlist(11, 40, true);
    let text = codec::to_text(&n);
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let first = lines.iter().position(|l| l.starts_with("n ")).expect("a net record");
    let name = lines[first].split(' ').nth(1).expect("net name").to_string();
    let after_name = lines[first + 1].splitn(3, ' ').nth(2).expect("driver and sinks").to_string();
    lines[first + 1] = format!("n {name} {after_name}");
    let edited: String = lines.iter().map(|l| format!("{l}\n")).collect();
    assert_eq!(
        codec::from_text(&edited).err(),
        Some(CodecError::RepeatedNetName { line: first + 2, name: codec::unescape(&name).unwrap() })
    );
}

#[test]
fn truncation_dropping_whole_records_is_an_error() {
    let n = arb_netlist(3, 30, true);
    let text = codec::to_text(&n);
    // Cutting right after the header leaves the counts promising records
    // that never arrive.
    for keep_lines in [1, 3, 5] {
        let prefix: String = text
            .lines()
            .take(keep_lines)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(
            matches!(codec::from_text(&prefix), Err(CodecError::Parse { .. })),
            "prefix of {keep_lines} lines must not parse"
        );
    }
}
