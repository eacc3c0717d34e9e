//! Experiment report structure and rendering (aligned text tables, CSV,
//! JSON).

use serde::Serialize;

/// A reproduced table or figure.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentReport {
    /// Short id ("table1", "fig6", …).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rendered rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (scaling substitutions, observations).
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// Create an empty report.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> ExperimentReport {
        ExperimentReport {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row (must match the column count).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width mismatch in {}",
            self.id
        );
        self.rows.push(cells);
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render as an aligned monospace table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.columns, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }

    /// Render as CSV with RFC 4180 quoting (shared writer in
    /// [`bgl_sim::csv`]): cells containing commas, quotes, or line breaks
    /// are wrapped in double quotes with inner quotes doubled, so no cell
    /// content is ever altered. Rows end in a bare `\n` (the simulator's
    /// trace export keeps RFC 4180's CRLF; both parse back with
    /// [`bgl_sim::csv::parse`]).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        bgl_sim::csv::push_row(&mut out, self.columns.iter().map(String::as_str), "\n");
        for row in &self.rows {
            bgl_sim::csv::push_row(&mut out, row.iter().map(String::as_str), "\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentReport {
        let mut r = ExperimentReport::new("t", "sample", &["a", "bee"]);
        r.push_row(vec!["1".into(), "2".into()]);
        r.push_row(vec!["333".into(), "4".into()]);
        r.note("hello");
        r
    }

    #[test]
    fn text_render_aligns() {
        let t = sample().to_text();
        assert!(t.contains("a    bee"));
        assert!(t.contains("333  4"));
        assert!(t.contains("note: hello"));
    }

    #[test]
    fn csv_render() {
        let c = sample().to_csv();
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines, vec!["a,bee", "1,2", "333,4"]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut r = ExperimentReport::new("t", "sample", &["a"]);
        r.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn csv_quotes_commas_per_rfc4180() {
        let mut r = ExperimentReport::new("t", "s", &["a", "b"]);
        r.push_row(vec!["x,y".into(), "plain".into()]);
        let lines: Vec<String> = r.to_csv().lines().map(String::from).collect();
        assert_eq!(lines[1], "\"x,y\",plain");
    }

    #[test]
    fn csv_doubles_inner_quotes_and_wraps_newlines() {
        let mut r = ExperimentReport::new("t", "s", &["a", "b"]);
        r.push_row(vec!["say \"hi\"".into(), "two\nlines".into()]);
        let csv = r.to_csv();
        assert!(csv.contains("\"say \"\"hi\"\"\""), "{csv}");
        assert!(csv.contains("\"two\nlines\""), "{csv}");
    }

    #[test]
    fn csv_leaves_clean_cells_unquoted() {
        let mut r = ExperimentReport::new("t", "s", &["m (B)"]);
        r.push_row(vec!["8x8x8".into()]);
        assert_eq!(r.to_csv(), "m (B)\n8x8x8\n");
    }

    /// Cells over a charset stacked with CSV specials (commas, quotes,
    /// CR, LF, Unicode) — the adversarial inputs for RFC-4180 quoting.
    fn cell_strategy() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::strategy::Strategy as _;
        const CHARS: [char; 9] = ['a', 'z', '0', ' ', ',', '"', '\r', '\n', 'é'];
        proptest::collection::vec(0usize..CHARS.len(), 0..9)
            .prop_map(|idxs| idxs.into_iter().map(|i| CHARS[i]).collect())
    }

    proptest::proptest! {
        /// Any cell content — commas, quotes, CR/LF, Unicode — survives
        /// the shared writer/parser pair exactly, through the report's
        /// LF-terminated rendering. (The CRLF-terminated trace export is
        /// covered by the same pairing in `bgl-sim`'s csv_roundtrip.)
        #[test]
        fn csv_parses_back_verbatim(
            header in proptest::collection::vec(cell_strategy(), 1..4),
            body in proptest::collection::vec(cell_strategy(), 1..13),
        ) {
            let width = header.len();
            let cols: Vec<&str> = header.iter().map(String::as_str).collect();
            let mut r = ExperimentReport::new("t", "s", &cols);
            for chunk_start in (0..body.len()).step_by(width) {
                let mut row: Vec<String> =
                    body[chunk_start..(chunk_start + width).min(body.len())].to_vec();
                row.resize(width, String::new());
                // A single empty cell renders as a blank line, which the
                // dialect (like RFC 4180) cannot distinguish from no row.
                if width == 1 && row[0].is_empty() {
                    continue;
                }
                r.push_row(row);
            }
            let parsed = bgl_sim::csv::parse(&r.to_csv());
            proptest::prop_assert_eq!(&parsed[0], &header);
            proptest::prop_assert_eq!(&parsed[1..], &r.rows[..]);
        }
    }
}
