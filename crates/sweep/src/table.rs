//! Plain-text tables and CSV emission for experiment results.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A rectangular results table with a header row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if the row width does not match the header width.
    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned, pipe-separated text table.
    pub fn to_ascii(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let render = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str(" | ");
                }
                let _ = write!(out, "{cell:>w$}", w = *w);
            }
            out.push('\n');
        };
        render(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 3 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render(&mut out, row);
        }
        out
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows, each as wide as the header row.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// A column parsed as `f64`, looked up by header name. Returns `None`
    /// if the header is unknown or any cell fails to parse.
    pub fn numeric_column(&self, header: &str) -> Option<Vec<f64>> {
        let idx = self.headers.iter().position(|h| h == header)?;
        self.rows
            .iter()
            .map(|r| r[idx].parse::<f64>().ok())
            .collect()
    }

    /// Renders RFC-4180-style CSV (quoting cells that need it).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |cell: &str| -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let emit = |cells: &[String], out: &mut String| {
            let line: Vec<String> = cells.iter().map(|c| esc(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        emit(&self.headers, &mut out);
        for row in &self.rows {
            emit(row, &mut out);
        }
        out
    }

    /// Writes the CSV rendering to a file, creating parent directories.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["procs", "cost", "time"]);
        t.push_row(vec!["1", "0.60", "5.5"]);
        t.push_row(vec!["128", "3.90", "0.3"]);
        t
    }

    #[test]
    fn ascii_is_aligned() {
        let s = sample().to_ascii();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("procs"));
        assert!(lines[1].starts_with('-'));
        // All rows equal width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn csv_roundtrips_simple_cells() {
        let csv = sample().to_csv();
        assert_eq!(csv, "procs,cost,time\n1,0.60,5.5\n128,3.90,0.3\n");
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push_row(vec!["x,y", "say \"hi\""]);
        assert_eq!(t.to_csv(), "a,b\n\"x,y\",\"say \"\"hi\"\"\"\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push_row(vec!["only one"]);
    }

    #[test]
    fn write_csv_creates_directories() {
        let dir = std::env::temp_dir().join("mcloud_table_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("out.csv");
        sample().write_csv(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("procs,"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn numeric_columns_parse_or_decline() {
        let t = sample();
        assert_eq!(t.numeric_column("cost"), Some(vec![0.60, 3.90]));
        assert_eq!(t.numeric_column("nope"), None);
        let mut bad = Table::new(vec!["a"]);
        bad.push_row(vec!["xyz"]);
        assert_eq!(bad.numeric_column("a"), None);
        assert_eq!(sample().headers(), &["procs", "cost", "time"]);
    }

    #[test]
    fn len_and_empty() {
        assert_eq!(sample().len(), 2);
        assert!(!sample().is_empty());
        assert!(Table::new(vec!["x"]).is_empty());
    }

    /// Formats a dollar amount for table cells.
    fn fmt_dollars(d: f64) -> String {
        format!("{d:.3}")
    }

    /// Formats a duration in hours for table cells.
    fn fmt_hours(h: f64) -> String {
        format!("{h:.3}")
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_dollars(1.23456), "1.235");
        assert_eq!(fmt_hours(5.5), "5.500");
    }
}
