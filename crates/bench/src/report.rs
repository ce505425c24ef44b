//! Report output: aligned text tables, CSV, and JSON result dumps.

use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A rectangular table with a header row, printed with aligned columns
/// and exportable as CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table title (figure/series name).
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows (already formatted as strings).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, header: Vec<impl Into<String>>) -> Self {
        Table {
            title: title.into(),
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<impl Into<String>>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders the table as a JSON object (`{title, header, rows}`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n    \"title\": ");
        out.push_str(&json_string(&self.title));
        out.push_str(",\n    \"header\": ");
        out.push_str(&json_string_array(&self.header));
        out.push_str(",\n    \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n      ");
            out.push_str(&json_string_array(row));
        }
        if !self.rows.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("]\n  }");
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// A success rate in `[0, 1]` as a percentage cell with one decimal.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_string_array(items: &[String]) -> String {
    let cells: Vec<String> = items.iter().map(|s| json_string(s)).collect();
    format!("[{}]", cells.join(", "))
}

/// Renders a slice of tables as a pretty-printed JSON array.
fn tables_to_json(tables: &[Table]) -> String {
    let mut out = String::from("[");
    for (i, table) in tables.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  ");
        out.push_str(&table.to_json());
    }
    if !tables.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

/// Writes tables to `dir` as CSV plus one combined JSON file, creating
/// the directory if needed.
///
/// # Errors
///
/// Propagates I/O errors from directory creation or file writes.
pub fn write_results(dir: &Path, name: &str, tables: &[Table]) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for table in tables {
        let slug: String = table
            .title
            .chars()
            .map(|c| if c.is_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
            .collect::<String>()
            .split('-')
            .filter(|s| !s.is_empty())
            .collect::<Vec<_>>()
            .join("-");
        let path = dir.join(format!("{name}-{slug}.csv"));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(table.to_csv().as_bytes())?;
        written.push(path);
    }
    let json_path = dir.join(format!("{name}.json"));
    let mut f = std::fs::File::create(&json_path)?;
    f.write_all(tables_to_json(tables).as_bytes())?;
    written.push(json_path);
    Ok(written)
}

/// Minimal CLI argument reader for the `figures` binary: one figure
/// name, then `--scale quick|paper`, `--seed N`, and `--out DIR`.
#[derive(Debug, Clone)]
pub struct CliArgs {
    /// Which figure to regenerate (`all` for every one).
    pub figure: String,
    /// `quick` (laptop-scale, seconds) or `paper` (full-scale, minutes).
    pub scale: String,
    /// Master seed.
    pub seed: u64,
    /// Output directory for CSV/JSON results.
    pub out: PathBuf,
}

impl CliArgs {
    /// Parses `std::env::args`, with defaults `--scale paper --seed 42
    /// --out target/experiments`.
    pub fn parse() -> Self {
        const USAGE: &str =
            "usage: figures <fig5|fig6|fig7|fig8|ablation|repair|tenants|chaos|all> [--scale quick|paper] [--seed N] [--out DIR]";
        let mut args = std::env::args().skip(1);
        let mut out = CliArgs {
            figure: String::new(),
            scale: "paper".into(),
            seed: 42,
            out: PathBuf::from("target/experiments"),
        };
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--scale" => out.scale = args.next().expect("--scale needs a value"),
                "--seed" => out.seed = args.next().expect("--seed needs a value").parse().expect("seed must be u64"),
                "--out" => out.out = PathBuf::from(args.next().expect("--out needs a value")),
                "--help" | "-h" => {
                    eprintln!("{USAGE}");
                    std::process::exit(0);
                }
                name if !name.starts_with('-') && out.figure.is_empty() => out.figure = flag,
                other => panic!("unknown flag {other}"),
            }
        }
        assert!(!out.figure.is_empty(), "{USAGE}");
        assert!(
            out.scale == "quick" || out.scale == "paper",
            "--scale must be quick or paper"
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new("Fig 6(a) success", vec!["rate", "acp", "optimal"]);
        t.push_row(vec!["20", "99.0", "100.0"]);
        t.push_row(vec!["100", "81.5", "85.0"]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let rendered = sample_table().render();
        assert!(rendered.contains("## Fig 6(a) success"));
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 5);
        // header and rows end aligned
        assert_eq!(lines[1].len(), lines[3].len());
    }

    #[test]
    fn csv_round_trips_cells() {
        let csv = sample_table().to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("rate,acp,optimal\n"));
        assert!(csv.contains("100,81.5,85.0"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_is_enforced() {
        let mut t = Table::new("x", vec!["a", "b"]);
        t.push_row(vec!["only-one"]);
    }

    #[test]
    fn write_results_creates_files() {
        let dir = std::env::temp_dir().join(format!("acp-report-test-{}", std::process::id()));
        let written = write_results(&dir, "fig6", &[sample_table()]).unwrap();
        assert_eq!(written.len(), 2);
        for p in &written {
            assert!(p.exists());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
