//! Benchmark harness library: the panel's claims as data ([`claims`], which
//! the `experiments` binary prints and `tests/claims.rs` checks), the one
//! table printer they and the binary share, and the Criterion benches'
//! `BENCHLINE` helper.

pub mod claims;

use std::fmt;

/// Median of `runs` samples of `f` — the same estimator the criterion
/// stand-in reports. Used for the `BENCHLINE` rows, whose samples the bench
/// times itself rather than through the Bencher.
pub fn median_seconds(runs: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..runs.max(1)).map(|_| f()).collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    samples[samples.len() / 2]
}

/// A table of already-formatted cells. It prints each column right-aligned
/// to its widest cell, header included.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    /// A line printed above the header; empty for none.
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Rows, one cell per column.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// An untitled table with these column names and no rows.
    pub fn new(header: &[&str]) -> Table {
        Table { header: header.iter().map(|h| h.to_string()).collect(), ..Table::default() }
    }

    /// Appends one row.
    pub fn row(&mut self, cells: impl IntoIterator<Item = String>) {
        self.rows.push(cells.into_iter().collect());
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.title.is_empty() {
            writeln!(f, "{}", self.title)?;
        }
        let lines = || std::iter::once(&self.header).chain(&self.rows);
        let width = |c| lines().filter_map(|line| line.get(c)).map(|cell: &String| cell.chars().count()).max().unwrap_or(0);
        let widths: Vec<usize> = (0..self.header.len()).map(width).collect();
        for line in lines() {
            let cells: Vec<String> = line.iter().zip(&widths).map(|(cell, &w)| format!("{cell:>w$}")).collect();
            writeln!(f, "{}", cells.join("  "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_picks_middle_sample() {
        let mut vals = [3.0, 1.0, 2.0].into_iter();
        assert_eq!(median_seconds(3, || vals.next().unwrap()), 2.0);
    }

    #[test]
    fn table_sizes_each_column_from_its_widest_cell() {
        let mut t = Table::new(&["node", "share"]);
        t.row(["180nm".to_string(), "26.0%".to_string()]);
        t.row(["5nm".to_string(), "0.0%".to_string()]);
        t.title = "design starts:".into();
        assert_eq!(t.to_string(), "design starts:\n node  share\n180nm  26.0%\n  5nm   0.0%\n");
    }
}
