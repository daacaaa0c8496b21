//! Standard-cell library exchange formats.
//!
//! Rossi's position statement recalls the cost of format dualism: *"the same
//! happened with UPF and CPF... We cannot also forget the approach used by
//! CCS-ECSM for library description: as a technology provider, we had to
//! duplicate the effort for our IP deliveries."* This module implements two
//! deliberately different library formats over the same characterization
//! data — a brace-structured `liberty`-like dialect and a line-oriented
//! `clf` dialect — plus lossless converters, so the duplication (and its
//! remedy: one data model, many syntaxes) can be demonstrated and tested.

use crate::cell::{CellDef, CellFunction, Library};
use std::sync::Arc;

/// Errors from library parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseLibError {
    /// A structural/grammar problem at a line.
    Syntax { line: usize, message: String },
    /// An unknown logic-function token.
    UnknownFunction { line: usize, token: String },
    /// A numeric attribute failed to parse.
    BadNumber { line: usize, attribute: String },
    /// A required attribute was missing from a cell.
    MissingAttribute { cell: String, attribute: &'static str },
}

impl std::fmt::Display for ParseLibError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseLibError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            ParseLibError::UnknownFunction { line, token } => {
                write!(f, "line {line}: unknown function `{token}`")
            }
            ParseLibError::BadNumber { line, attribute } => {
                write!(f, "line {line}: bad number for `{attribute}`")
            }
            ParseLibError::MissingAttribute { cell, attribute } => {
                write!(f, "cell `{cell}` missing `{attribute}`")
            }
        }
    }
}

impl std::error::Error for ParseLibError {}

/// Serializes a [`CellFunction`] to its exchange token.
pub fn function_token(f: CellFunction) -> String {
    match f {
        CellFunction::Const0 => "tie0".into(),
        CellFunction::Const1 => "tie1".into(),
        CellFunction::Buf => "buf".into(),
        CellFunction::Inv => "inv".into(),
        CellFunction::And(n) => format!("and{n}"),
        CellFunction::Nand(n) => format!("nand{n}"),
        CellFunction::Or(n) => format!("or{n}"),
        CellFunction::Nor(n) => format!("nor{n}"),
        CellFunction::Xor2 => "xor2".into(),
        CellFunction::Xnor2 => "xnor2".into(),
        CellFunction::Aoi21 => "aoi21".into(),
        CellFunction::Oai21 => "oai21".into(),
        CellFunction::Mux2 => "mux2".into(),
        CellFunction::Maj3 => "maj3".into(),
        CellFunction::Dff => "dff".into(),
        CellFunction::ScanDff => "sdff".into(),
        CellFunction::ClockGate => "clkgate".into(),
        CellFunction::LevelShifter => "lvlshift".into(),
        CellFunction::Isolation => "iso".into(),
        CellFunction::Decap => "decap".into(),
    }
}

/// Parses an exchange token back to a [`CellFunction`].
pub fn parse_function_token(token: &str) -> Option<CellFunction> {
    Some(match token {
        "tie0" => CellFunction::Const0,
        "tie1" => CellFunction::Const1,
        "buf" => CellFunction::Buf,
        "inv" => CellFunction::Inv,
        "xor2" => CellFunction::Xor2,
        "xnor2" => CellFunction::Xnor2,
        "aoi21" => CellFunction::Aoi21,
        "oai21" => CellFunction::Oai21,
        "mux2" => CellFunction::Mux2,
        "maj3" => CellFunction::Maj3,
        "dff" => CellFunction::Dff,
        "sdff" => CellFunction::ScanDff,
        "clkgate" => CellFunction::ClockGate,
        "lvlshift" => CellFunction::LevelShifter,
        "iso" => CellFunction::Isolation,
        "decap" => CellFunction::Decap,
        other => {
            let (base, n) = other.split_at(other.len().checked_sub(1)?);
            let n: u8 = n.parse().ok()?;
            if !(2..=4).contains(&n) {
                return None;
            }
            match base {
                "and" => CellFunction::And(n),
                "nand" => CellFunction::Nand(n),
                "or" => CellFunction::Or(n),
                "nor" => CellFunction::Nor(n),
                _ => return None,
            }
        }
    })
}

/// Writes the brace-structured `liberty`-like dialect.
///
/// # Examples
///
/// ```
/// use eda_netlist::{liberty, Library};
/// let text = liberty::write_liberty(&Library::generic());
/// assert!(text.contains("cell (NAND2_X1)"));
/// ```
pub fn write_liberty(lib: &Library) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "library ({}) {{", lib.name());
    for (_, def) in lib.iter() {
        let _ = writeln!(out, "  cell ({}) {{", def.name);
        let _ = writeln!(out, "    function : \"{}\";", function_token(def.function));
        let _ = writeln!(out, "    area : {};", def.area_um2);
        let _ = writeln!(out, "    delay : {};", def.delay_ps);
        let _ = writeln!(out, "    drive : {};", def.drive_ps_per_ff);
        let _ = writeln!(out, "    cap : {};", def.input_cap_ff);
        let _ = writeln!(out, "    leakage : {};", def.leakage_nw);
        let _ = writeln!(out, "  }}");
    }
    let _ = writeln!(out, "}}");
    out
}

/// Parses the `liberty`-like dialect.
///
/// # Errors
///
/// Returns a [`ParseLibError`] describing the first problem found.
pub fn parse_liberty(text: &str) -> Result<Arc<Library>, ParseLibError> {
    let mut lib: Option<Library> = None;
    let mut cell_name: Option<String> = None;
    let mut attrs: Vec<(String, String, usize)> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let stmt = raw.split("/*").next().unwrap_or("").trim();
        if stmt.is_empty() {
            continue;
        }
        if let Some(rest) = stmt.strip_prefix("library") {
            let name = rest
                .trim()
                .strip_prefix('(')
                .and_then(|s| s.split(')').next())
                .ok_or(ParseLibError::Syntax { line, message: "expected `library (name) {`".into() })?;
            lib = Some(Library::new(name.trim()));
        } else if let Some(rest) = stmt.strip_prefix("cell") {
            let name = rest
                .trim()
                .strip_prefix('(')
                .and_then(|s| s.split(')').next())
                .ok_or(ParseLibError::Syntax { line, message: "expected `cell (name) {`".into() })?;
            cell_name = Some(name.trim().to_string());
            attrs.clear();
        } else if stmt == "}" {
            if let Some(name) = cell_name.take() {
                let def = build_cell(name, &attrs)?;
                lib.as_mut()
                    .ok_or(ParseLibError::Syntax { line, message: "cell outside library".into() })?
                    .add_cell(def);
            }
            // else: closing the library block.
        } else if let Some((k, v)) = stmt.split_once(':') {
            if cell_name.is_none() {
                return Err(ParseLibError::Syntax {
                    line,
                    message: format!("attribute `{}` outside a cell", k.trim()),
                });
            }
            let v = v.trim().trim_end_matches(';').trim().trim_matches('"');
            attrs.push((k.trim().to_string(), v.to_string(), line));
        } else {
            return Err(ParseLibError::Syntax { line, message: format!("unrecognized `{stmt}`") });
        }
    }
    lib.map(Arc::new)
        .ok_or(ParseLibError::Syntax { line: 0, message: "no library block found".into() })
}

/// Writes the line-oriented `clf` dialect.
///
/// # Examples
///
/// ```
/// use eda_netlist::{liberty, Library};
/// let text = liberty::write_clf(&Library::generic());
/// assert!(text.starts_with("LIBRARY generic"));
/// ```
pub fn write_clf(lib: &Library) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "LIBRARY {}", lib.name());
    for (_, def) in lib.iter() {
        let _ = writeln!(
            out,
            "CELL {} FUNC={} AREA={} DELAY={} DRIVE={} CAP={} LEAK={}",
            def.name,
            function_token(def.function),
            def.area_um2,
            def.delay_ps,
            def.drive_ps_per_ff,
            def.input_cap_ff,
            def.leakage_nw
        );
    }
    let _ = writeln!(out, "END");
    out
}

/// Parses the `clf` dialect.
///
/// # Errors
///
/// Returns a [`ParseLibError`] describing the first problem found.
pub fn parse_clf(text: &str) -> Result<Arc<Library>, ParseLibError> {
    let mut lib: Option<Library> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let stmt = raw.split('#').next().unwrap_or("").trim();
        if stmt.is_empty() {
            continue;
        }
        if let Some(rest) = stmt.strip_prefix("LIBRARY ") {
            lib = Some(Library::new(rest.trim()));
        } else if stmt == "END" {
            break;
        } else if let Some(rest) = stmt.strip_prefix("CELL ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or(ParseLibError::Syntax { line, message: "CELL without a name".into() })?
                .to_string();
            let mut attrs: Vec<(String, String, usize)> = Vec::new();
            for kv in parts {
                let (k, v) = kv.split_once('=').ok_or(ParseLibError::Syntax {
                    line,
                    message: format!("expected KEY=VALUE, got `{kv}`"),
                })?;
                // Normalize CLF keys onto the shared attribute names.
                let key = match k {
                    "FUNC" => "function",
                    "AREA" => "area",
                    "DELAY" => "delay",
                    "DRIVE" => "drive",
                    "CAP" => "cap",
                    "LEAK" => "leakage",
                    other => {
                        return Err(ParseLibError::Syntax {
                            line,
                            message: format!("unknown attribute `{other}`"),
                        })
                    }
                };
                attrs.push((key.to_string(), v.to_string(), line));
            }
            let def = build_cell(name, &attrs)?;
            lib.as_mut()
                .ok_or(ParseLibError::Syntax { line, message: "CELL before LIBRARY".into() })?
                .add_cell(def);
        } else {
            return Err(ParseLibError::Syntax { line, message: format!("unrecognized `{stmt}`") });
        }
    }
    lib.map(Arc::new)
        .ok_or(ParseLibError::Syntax { line: 0, message: "no LIBRARY header found".into() })
}

/// Shared attribute-set → [`CellDef`] assembly for both dialects.
fn build_cell(name: String, attrs: &[(String, String, usize)]) -> Result<CellDef, ParseLibError> {
    let get = |key: &'static str| -> Option<(&str, usize)> {
        attrs.iter().find(|(k, _, _)| k == key).map(|(_, v, l)| (v.as_str(), *l))
    };
    let num = |key: &'static str| -> Result<f64, ParseLibError> {
        let (v, line) =
            get(key).ok_or(ParseLibError::MissingAttribute { cell: name.clone(), attribute: key })?;
        v.parse().map_err(|_| ParseLibError::BadNumber { line, attribute: key.into() })
    };
    let (ftok, fline) = get("function")
        .ok_or(ParseLibError::MissingAttribute { cell: name.clone(), attribute: "function" })?;
    let function = parse_function_token(ftok)
        .ok_or(ParseLibError::UnknownFunction { line: fline, token: ftok.to_string() })?;
    let area_um2 = num("area")?;
    let delay_ps = num("delay")?;
    let drive_ps_per_ff = num("drive")?;
    let input_cap_ff = num("cap")?;
    let leakage_nw = num("leakage")?;
    Ok(CellDef { name, function, area_um2, delay_ps, drive_ps_per_ff, input_cap_ff, leakage_nw })
}

/// Converts the `clf` dialect to the `liberty`-like dialect losslessly
/// (Rossi's point: one data model should serve every syntax).
///
/// # Errors
///
/// Propagates parse errors from the input.
pub fn clf_to_liberty(text: &str) -> Result<String, ParseLibError> {
    Ok(write_liberty(&parse_clf(text)?.as_ref().clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn libraries_equal(a: &Library, b: &Library) -> bool {
        if a.name() != b.name() || a.len() != b.len() {
            return false;
        }
        a.iter().zip(b.iter()).all(|((_, x), (_, y))| x == y)
    }

    #[test]
    fn liberty_roundtrip_all_standard_libraries() {
        for lib in [Library::generic(), Library::nand_inv_2006(), Library::controlled_polarity()] {
            let text = write_liberty(&lib);
            let parsed = parse_liberty(&text).unwrap();
            assert!(libraries_equal(&lib, &parsed), "{} round trip", lib.name());
        }
    }

    #[test]
    fn clf_roundtrip_all_standard_libraries() {
        for lib in [Library::generic(), Library::nand_inv_2006(), Library::controlled_polarity()] {
            let text = write_clf(&lib);
            let parsed = parse_clf(&text).unwrap();
            assert!(libraries_equal(&lib, &parsed), "{} round trip", lib.name());
        }
    }

    #[test]
    fn cross_format_conversion_is_lossless() {
        let lib = Library::generic();
        let liberty = write_liberty(&lib);
        let clf = write_clf(&parse_liberty(&liberty).unwrap());
        let back = clf_to_liberty(&clf).unwrap();
        assert_eq!(liberty, back, "liberty -> clf -> liberty is the identity");
    }

    #[test]
    fn function_tokens_roundtrip() {
        let fns = [
            CellFunction::Const0,
            CellFunction::Inv,
            CellFunction::And(3),
            CellFunction::Nand(4),
            CellFunction::Nor(2),
            CellFunction::Xor2,
            CellFunction::Mux2,
            CellFunction::ScanDff,
            CellFunction::Decap,
        ];
        for f in fns {
            assert_eq!(parse_function_token(&function_token(f)), Some(f), "{f:?}");
        }
        assert_eq!(parse_function_token("nand9"), None);
        assert_eq!(parse_function_token("frobnicate"), None);
        assert_eq!(parse_function_token(""), None);
    }

    #[test]
    fn parse_errors_are_located() {
        let missing = "library (x) {\n  cell (A) {\n    function : \"inv\";\n  }\n}\n";
        assert!(matches!(
            parse_liberty(missing),
            Err(ParseLibError::MissingAttribute { attribute: "area", .. })
        ));
        let bad_num = "LIBRARY x\nCELL A FUNC=inv AREA=abc DELAY=1 DRIVE=1 CAP=1 LEAK=1\nEND\n";
        assert!(matches!(parse_clf(bad_num), Err(ParseLibError::BadNumber { line: 2, .. })));
        let bad_fn = "LIBRARY x\nCELL A FUNC=zap2 AREA=1 DELAY=1 DRIVE=1 CAP=1 LEAK=1\nEND\n";
        assert!(matches!(parse_clf(bad_fn), Err(ParseLibError::UnknownFunction { .. })));
        assert!(parse_liberty("").is_err());
        assert!(parse_clf("CELL A FUNC=inv\n").is_err());
    }

    #[test]
    fn parsed_library_drives_a_netlist() {
        use crate::netlist::Netlist;
        let lib = parse_clf(&write_clf(&Library::generic())).unwrap();
        let mut n = Netlist::with_library("t", lib);
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_gate_fn("u", CellFunction::Nand(2), &[a, b]).unwrap();
        n.add_output("y", y);
        n.validate().unwrap();
        let (outs, _) = n.simulate(&[true, true], &[]);
        assert_eq!(outs, vec![false]);
    }

    #[test]
    fn comments_tolerated() {
        let text = "LIBRARY x  # my lib\n# full-line comment\nCELL A FUNC=inv AREA=1 DELAY=1 DRIVE=1 CAP=1 LEAK=1\nEND\n";
        let lib = parse_clf(text).unwrap();
        assert_eq!(lib.len(), 1);
    }
}
