//! Minimal plain-text table rendering for the experiment benches.

use std::fmt;

/// A fixed-column text table. Cells are right-aligned except the first
/// column, which is left-aligned (row labels).
///
/// # Examples
///
/// ```
/// use debruijn_analysis::Table;
///
/// let mut t = Table::new(vec!["k".into(), "avg".into()]);
/// t.row(vec!["3".into(), "2.156".into()]);
/// let s = t.to_string();
/// assert!(s.contains("avg"));
/// assert!(s.contains("2.156"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        Self {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
        self
    }

    /// Convenience: appends a row of `Display` values.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row_display<D: fmt::Display>(&mut self, cells: &[D]) -> &mut Self {
        self.row(cells.iter().map(|c| c.to_string()).collect())
    }

    /// Renders the table as RFC-4180-ish CSV (quotes only where needed).
    pub fn to_csv(&self) -> String {
        fn cell(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        for row in std::iter::once(&self.headers).chain(self.rows.iter()) {
            let line: Vec<String> = row.iter().map(|c| cell(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the table as a GitHub-flavoured Markdown table, the form
    /// EXPERIMENTS.md quotes.
    pub fn to_markdown(&self) -> String {
        let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
        let mut out = line(&self.headers);
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&line(row));
        }
        out
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                if i == 0 {
                    write!(f, "{cell:<width$}", width = widths[i])?;
                } else {
                    write!(f, "{cell:>width$}", width = widths[i])?;
                }
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["name".into(), "value".into()]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "12345".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[3].ends_with("12345"));
    }

    #[test]
    fn row_display_converts_values() {
        let mut t = Table::new(vec!["k".into(), "v".into()]);
        t.row_display(&[1.5, 2.25]);
        assert!(t.to_string().contains("2.25"));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        Table::new(vec!["a".into()]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn csv_quotes_only_when_needed() {
        let mut t = Table::new(vec!["name".into(), "note".into()]);
        t.row(vec!["plain".into(), "a,b".into()]);
        t.row(vec!["quoted\"q".into(), "x".into()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,note");
        assert_eq!(lines[1], "plain,\"a,b\"");
        assert_eq!(lines[2], "\"quoted\"\"q\",x");
    }

    #[test]
    fn markdown_has_a_header_rule_and_one_line_per_row() {
        let mut t = Table::new(vec!["k".into(), "v".into()]);
        t.row(vec!["1".into(), "2.5".into()]);
        assert_eq!(t.to_markdown(), "| k | v |\n|---|---|\n| 1 | 2.5 |\n");
    }

    #[test]
    fn csv_round_trips_to_disk() {
        let mut t = Table::new(vec!["k".into(), "v".into()]);
        t.row(vec!["1".into(), "2".into()]);
        let dir = std::env::temp_dir().join("debruijn-table-test");
        let path = dir.join("nested").join("t.csv");
        t.write_csv(&path).expect("writable temp dir");
        let read = std::fs::read_to_string(&path).expect("readable");
        assert_eq!(read, t.to_csv());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
