//! The single reporting layer shared by every harness binary and the CLI.
//!
//! A [`Report`] is a keyed table: a left-hand key column ("workload",
//! "window", …), value columns with fixed widths, body rows, footer rows
//! (geomean/mean lines set off by a rule), plus free-form title and note
//! lines. One report renders in any [`Format`]:
//!
//! * [`Format::Table`] — the aligned human-readable tables the harness
//!   binaries have always printed (titles, rules and notes included);
//! * [`Format::Csv`] — one header line and one comma-separated line per row,
//!   for plotting or regression tracking;
//! * [`Format::Json`] — one JSON object per row (JSON lines), keyed by the
//!   column headers.

use std::fmt::Write as _;
use std::str::FromStr;

use tdo_obs::json::escape;

/// Output format for a rendered [`Report`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Aligned human-readable table with titles, rules and notes.
    Table,
    /// Comma-separated values: a header line, then one line per row.
    Csv,
    /// JSON lines: one object per row, keyed by column headers.
    Json,
}

impl FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Format, String> {
        match s {
            "table" => Ok(Format::Table),
            "csv" => Ok(Format::Csv),
            "json" => Ok(Format::Json),
            other => Err(format!("unknown format `{other}` (expected table, csv or json)")),
        }
    }
}

struct Row {
    key: String,
    cells: Vec<String>,
    footer: bool,
}

/// A keyed table of pre-formatted cells, renderable in any [`Format`].
pub struct Report {
    slug: String,
    titles: Vec<String>,
    key_header: String,
    key_width: usize,
    cols: Vec<(String, usize)>,
    rows: Vec<Row>,
    notes: Vec<String>,
    rule_width: Option<usize>,
}

impl Report {
    /// Creates an empty report; `slug` names the table in JSON output.
    ///
    /// The key column defaults to a 10-wide "workload" column.
    #[must_use]
    pub fn new(slug: impl Into<String>) -> Report {
        Report {
            slug: slug.into(),
            titles: Vec::new(),
            key_header: "workload".into(),
            key_width: 10,
            cols: Vec::new(),
            rows: Vec::new(),
            notes: Vec::new(),
            rule_width: None,
        }
    }

    /// Adds a title line (printed before the table in table mode).
    #[must_use]
    pub fn title(mut self, line: impl Into<String>) -> Report {
        self.titles.push(line.into());
        self
    }

    /// Overrides the key column header and width.
    #[must_use]
    pub fn key(mut self, header: impl Into<String>, width: usize) -> Report {
        self.key_header = header.into();
        self.key_width = width;
        self
    }

    /// Adds a right-aligned value column of the given width.
    #[must_use]
    pub fn col(mut self, header: impl Into<String>, width: usize) -> Report {
        self.cols.push((header.into(), width));
        self
    }

    /// Overrides the horizontal-rule length (defaults to the table width);
    /// `0` suppresses rules entirely.
    #[must_use]
    pub fn rule(mut self, width: usize) -> Report {
        self.rule_width = Some(width);
        self
    }

    /// Appends a body row. Cells render right-aligned in their column; a row
    /// may carry fewer cells than there are columns (the rest stay blank).
    pub fn row<S: Into<String>>(
        &mut self,
        key: impl Into<String>,
        cells: impl IntoIterator<Item = S>,
    ) {
        self.rows.push(Row {
            key: key.into(),
            cells: cells.into_iter().map(Into::into).collect(),
            footer: false,
        });
    }

    /// Appends a footer row (set off from the body by a rule in table mode).
    pub fn footer<S: Into<String>>(
        &mut self,
        key: impl Into<String>,
        cells: impl IntoIterator<Item = S>,
    ) {
        self.rows.push(Row {
            key: key.into(),
            cells: cells.into_iter().map(Into::into).collect(),
            footer: true,
        });
    }

    /// Appends a note line (printed after the table in table mode, set off by
    /// a blank line).
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Renders the report in the requested format; the string ends with a
    /// newline when the report is non-empty.
    #[must_use]
    pub fn render(&self, format: Format) -> String {
        match format {
            Format::Table => self.render_table(),
            Format::Csv => self.render_csv(),
            Format::Json => self.render_json(),
        }
    }

    fn rule_len(&self) -> usize {
        self.rule_width
            .unwrap_or_else(|| self.key_width + self.cols.iter().map(|(_, w)| w + 1).sum::<usize>())
    }

    fn render_table(&self) -> String {
        let mut out = String::new();
        for t in &self.titles {
            let _ = writeln!(out, "{t}");
        }
        let _ = write!(out, "{:<w$}", self.key_header, w = self.key_width);
        for (h, w) in &self.cols {
            let _ = write!(out, " {h:>w$}", w = w);
        }
        out.push('\n');
        let rule_len = self.rule_len();
        if rule_len > 0 {
            let _ = writeln!(out, "{}", "-".repeat(rule_len));
        }
        let mut in_footer = false;
        for row in &self.rows {
            if row.footer && !in_footer {
                if rule_len > 0 {
                    let _ = writeln!(out, "{}", "-".repeat(rule_len));
                }
                in_footer = true;
            }
            let _ = write!(out, "{:<w$}", row.key, w = self.key_width);
            for (cell, (_, w)) in row.cells.iter().zip(&self.cols) {
                let _ = write!(out, " {cell:>w$}", w = w);
            }
            out.push('\n');
        }
        if !self.notes.is_empty() {
            out.push('\n');
            for n in &self.notes {
                let _ = writeln!(out, "{n}");
            }
        }
        out
    }

    fn render_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", csv_field(&self.key_header));
        for (h, _) in &self.cols {
            let _ = write!(out, ",{}", csv_field(h));
        }
        out.push('\n');
        for row in &self.rows {
            let _ = write!(out, "{}", csv_field(&row.key));
            for i in 0..self.cols.len() {
                let _ = write!(out, ",{}", csv_field(row.cells.get(i).map_or("", |c| c.trim())));
            }
            out.push('\n');
        }
        out
    }

    fn render_json(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            let _ = write!(
                out,
                "{{\"table\":\"{}\",\"{}\":\"{}\"",
                escape(&self.slug),
                self.key_header,
                escape(&row.key)
            );
            if row.footer {
                let _ = write!(out, ",\"footer\":true");
            }
            for (cell, (h, _)) in row.cells.iter().zip(&self.cols) {
                let _ = write!(out, ",\"{}\":\"{}\"", escape(h), escape(cell.trim()));
            }
            out.push_str("}\n");
        }
        out
    }
}

/// One CSV field: as is, or quoted (inner quotes doubled) when it holds a
/// comma, a quote or a line break.
fn csv_field(s: &str) -> std::borrow::Cow<'_, str> {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\"")).into()
    } else {
        s.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("t").title("A table").col("a", 5).col("b", 6);
        r.row("x", ["1.0", "+2.0%"]);
        r.footer("geomean", ["", "+2.0%"]);
        r.note("note line.");
        r
    }

    #[test]
    fn table_layout_is_aligned() {
        let s = sample().render(Format::Table);
        let want = "A table\n\
                    workload       a      b\n\
                    -----------------------\n\
                    x            1.0  +2.0%\n\
                    -----------------------\n\
                    geomean           +2.0%\n\
                    \n\
                    note line.\n";
        assert_eq!(s, want);
    }

    #[test]
    fn csv_strips_alignment() {
        let s = sample().render(Format::Csv);
        assert_eq!(s, "workload,a,b\nx,1.0,+2.0%\ngeomean,,+2.0%\n");
    }

    #[test]
    fn csv_quotes_fields_that_hold_commas_or_quotes() {
        let mut r = Report::new("t").key("component", 8).col("setting", 0);
        r.row("L1, data", ["64 KB, \"2-way\""]);
        let s = r.render(Format::Csv);
        assert_eq!(s, "component,setting\n\"L1, data\",\"64 KB, \"\"2-way\"\"\"\n");
    }

    #[test]
    fn json_lines_parse_shape() {
        let s = sample().render(Format::Json);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "{\"table\":\"t\",\"workload\":\"x\",\"a\":\"1.0\",\"b\":\"+2.0%\"}");
        assert!(lines[1].contains("\"footer\":true"));
    }

    #[test]
    fn format_parses() {
        assert_eq!("csv".parse::<Format>(), Ok(Format::Csv));
        assert!("yaml".parse::<Format>().is_err());
    }
}
