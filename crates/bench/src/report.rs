//! Plain-text and CSV emission of experiment results.
//!
//! The bench binaries print aligned ASCII tables (what you read in the
//! terminal) and write CSV files under `target/figures/` (what you re-plot),
//! both produced by the same [`Table`] value so they can never diverge.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A simple rectangular table: a header row plus data rows of equal length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table with the given title and column names.
    #[must_use]
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Title of the table.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's length does not match the header.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.header.len(),
            "row arity must match the header"
        );
        self.rows.push(row);
    }

    /// Render as an aligned ASCII table.
    #[must_use]
    pub fn to_ascii(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let rendered: Vec<String> = cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            let _ = writeln!(out, "| {} |", rendered.join(" | "));
        };
        line(&mut out, &self.header);
        let total_width: usize = widths.iter().map(|w| w + 3).sum::<usize>() + 1;
        let _ = writeln!(out, "{}", "-".repeat(total_width));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Render as CSV (header + rows, comma-separated, no quoting — callers
    /// only emit numeric cells and simple labels).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Write the CSV rendering under `dir/<file_stem>.csv`, creating the
    /// directory if needed, and return the path written.
    pub fn write_csv(&self, dir: impl AsRef<Path>, file_stem: &str) -> io::Result<PathBuf> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{file_stem}.csv"));
        fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// The default output directory of the bench binaries' CSV files.
#[must_use]
pub fn default_figure_dir() -> PathBuf {
    PathBuf::from("target").join("figures")
}

/// Format a float with a sensible number of digits for tables.
#[must_use]
pub fn fmt_f64(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new("speedups", &["cores", "speedup"]);
        t.push_row(vec![16.to_string(), fmt_f64(12.34)]);
        t.push_row(vec![256.to_string(), fmt_f64(52.0)]);
        t
    }

    #[test]
    fn ascii_rendering_is_aligned_and_complete() {
        let t = sample_table();
        let ascii = t.to_ascii();
        assert!(ascii.contains("# speedups"));
        assert!(ascii.contains("cores"));
        assert!(ascii.contains("12.34"));
        assert!(ascii.contains("52.0"));
        // all data lines have the same length (alignment)
        let data_lines: Vec<&str> = ascii.lines().filter(|l| l.starts_with('|')).collect();
        assert_eq!(data_lines.len(), 3);
        assert!(data_lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    #[test]
    fn csv_rendering_round_trips_cells() {
        let t = sample_table();
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "cores,speedup");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("16,"));
    }

    #[test]
    fn write_csv_creates_the_file() {
        let dir = std::env::temp_dir().join("cbls-bench-test-figures");
        let t = sample_table();
        let path = t.write_csv(&dir, "unit_test_table").unwrap();
        let contents = fs::read_to_string(&path).unwrap();
        assert!(contents.contains("cores,speedup"));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn float_formatting_ranges() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(0.1234), "0.1234");
        assert_eq!(fmt_f64(std::f64::consts::PI), "3.14");
        assert_eq!(fmt_f64(123.456), "123.5");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn mismatched_rows_are_rejected() {
        let mut t = Table::new("bad", &["a", "b"]);
        t.push_row(vec!["1".to_string()]);
    }

    #[test]
    fn empty_table_reports_empty() {
        let t = Table::new("empty", &["x"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
