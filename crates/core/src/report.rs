//! Rendering: ASCII tables and TSV series.
//!
//! Everything the `repro` binary and the examples print goes through these
//! two small builders so output stays consistent and machine-consumable.

use std::fmt::Write as _;

/// Format a percentage like the paper (two decimals, `%` suffix).
pub fn format_pct(v: f64) -> String {
    format!("{v:.2}%")
}

/// Format a count with the paper's `k` / `M` suffixes.
pub fn format_count(v: u64) -> String {
    if v >= 10_000_000 {
        format!("{:.1}M", v as f64 / 1e6)
    } else if v >= 10_000 {
        format!("{:.0}k", v as f64 / 1e3)
    } else if v >= 1_000 {
        format!("{:.1}k", v as f64 / 1e3)
    } else {
        v.to_string()
    }
}

/// An ASCII table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new<S: Into<String>>(title: S, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (shorter rows are padded with empty cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with box-drawing rules and per-column alignment (numbers
    /// right, text left).
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let numericish = |s: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_digit() || ".,%kM-+()".contains(c))
        };
        let align: Vec<bool> = (0..cols)
            .map(|i| {
                self.rows
                    .iter()
                    .all(|r| r[i].is_empty() || numericish(&r[i]))
            })
            .collect();

        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        let rule = |out: &mut String| {
            let _ = write!(out, "+");
            for w in &widths {
                let _ = write!(out, "{}+", "-".repeat(w + 2));
            }
            let _ = writeln!(out);
        };
        let emit = |out: &mut String, cells: &[String]| {
            let _ = write!(out, "|");
            for (i, c) in cells.iter().enumerate() {
                let pad = widths[i] - c.chars().count();
                if align[i] {
                    let _ = write!(out, " {}{} |", " ".repeat(pad), c);
                } else {
                    let _ = write!(out, " {}{} |", c, " ".repeat(pad));
                }
            }
            let _ = writeln!(out);
        };
        rule(&mut out);
        emit(&mut out, &self.headers);
        rule(&mut out);
        for row in &self.rows {
            emit(&mut out, row);
        }
        rule(&mut out);
        out
    }
}

/// A TSV time-series / data-series builder (one header line, tab-separated
/// rows) — trivially plottable.
#[derive(Debug, Clone, Default)]
pub struct Series {
    name: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Series {
    /// New series with column names.
    pub fn new<S: Into<String>>(name: S, columns: &[&str]) -> Self {
        Series {
            name: name.into(),
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one data row.
    pub fn push<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Render as TSV with a `# name` comment line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.name);
        let _ = writeln!(out, "{}", self.columns.join("\t"));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join("\t"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_pcts() {
        assert_eq!(format_count(42), "42");
        assert_eq!(format_count(1_234), "1.2k");
        assert_eq!(format_count(76_000), "76k");
        assert_eq!(format_count(6_586_000), "6586k");
        assert_eq!(format_count(15_000_000), "15.0M");
        assert_eq!(format_pct(91.578), "91.58%");
        assert_eq!(format_pct(0.061), "0.06%");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Issuing activity", &["Issuer Org.", "# Certs", "(%)"]);
        t.row(["Let's Encrypt", "6586k", "91.58%"]);
        t.row(["DigiCert", "244k", "3.40%"]);
        let s = t.render();
        assert!(s.contains("## Issuing activity"));
        assert!(s.contains("| Let's Encrypt |"));
        // Numeric columns right-aligned: "3.40%" should be padded left.
        assert!(s.contains("|  3.40% |") || s.contains("| 3.40% |"));
        assert_eq!(t.len(), 2);
        // Every line same width.
        let lines: Vec<&str> = s.lines().skip(1).collect();
        let w = lines[0].chars().count();
        assert!(lines.iter().all(|l| l.chars().count() == w));
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new("x", &["a", "b", "c"]);
        t.row(["only-one"]);
        assert!(t.render().contains("only-one"));
    }

    #[test]
    fn series_renders_tsv() {
        let mut s = Series::new("fig1", &["date", "full", "partial", "non"]);
        s.push(["2022-02-24", "67.0", "16.5", "16.5"]);
        let out = s.render();
        assert!(out.starts_with("# fig1\n"));
        assert!(out.contains("date\tfull\tpartial\tnon"));
        assert!(out.contains("2022-02-24\t67.0\t16.5\t16.5"));
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }
}
