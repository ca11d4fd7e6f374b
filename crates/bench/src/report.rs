//! Plain-text table rendering for the reproduction reports.

use std::fmt::Write as _;

/// A simple left-aligned text table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub(crate) fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub(crate) fn row(&mut self, cells: &[&str]) -> &mut Table {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows
            .push(cells.iter().map(|s| (*s).to_owned()).collect());
        self
    }

    /// Appends a row of owned strings.
    pub(crate) fn row_owned(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned plain text.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(s, "{cell:<w$}  ");
            }
            s.trim_end().to_owned()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total.max(4)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders the table as CSV (for plotting tools).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(esc).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(esc).collect::<Vec<_>>().join(","));
        }
        out
    }
}

/// Formats a float with the given number of decimals.
pub(crate) fn fmt_f(x: f64, decimals: usize) -> String {
    if x.is_nan() {
        "n/a".to_owned()
    } else {
        format!("{x:.decimals$}")
    }
}

/// Formats a fraction as a percentage string.
pub(crate) fn fmt_pct(x: f64) -> String {
    if x.is_nan() {
        "n/a".to_owned()
    } else {
        format!("{:.1}%", x * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_alignment_and_counts() {
        let mut t = Table::new("t", &["a", "long-header"]);
        t.row(&["x", "1"]).row(&["yyyy", "2"]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let s = t.render();
        assert!(s.starts_with("== t =="));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // Header and rows align on the same column.
        let col = lines[1].find("long-header").unwrap();
        assert_eq!(lines[3].find('1').unwrap(), col);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["has,comma", "has\"quote"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        Table::new("t", &["a", "b"]).row(&["only-one"]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_f(f64::NAN, 2), "n/a");
        assert_eq!(fmt_pct(0.331), "33.1%");
        assert_eq!(fmt_pct(f64::NAN), "n/a");
    }
}
