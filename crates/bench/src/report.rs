//! Fixed-width table printing and timing helpers for the report
//! binaries.

use reach_core::{BuildReport, Completeness, CondensationUse, Dynamism, InputClass};
use std::time::{Duration, Instant};

/// Runs `f`, returning its result and the elapsed wall-clock time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// A simple aligned text table.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        assert!(!headers.is_empty(), "a table needs at least one column");
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Appends a row whose cells after `cells` are empty.
    pub fn row_padded<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert!(row.len() <= self.headers.len(), "row width mismatch");
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(c);
                for _ in c.chars().count()..width[i] {
                    line.push(' ');
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &width));
        out.push('\n');
        let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }
}

/// The "Index type", "Input" and "Dynamic" cells of Tables 1 and 2.
pub fn taxonomy_cells(c: Completeness, input: InputClass, d: Dynamism) -> [String; 3] {
    let kind = match c {
        Completeness::Complete => "Complete",
        Completeness::Partial => "Partial",
    };
    let input = match input {
        InputClass::Dag => "DAG",
        InputClass::General => "General",
    };
    let dynamic = match d {
        Dynamism::Static => "No",
        Dynamism::InsertOnly => "Insert",
        Dynamism::InsertDelete => "Yes",
    };
    [kind, input, dynamic].map(String::from)
}

/// Human-readable duration (µs / ms / s).
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1_000.0 {
        format!("{us:.1}µs")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1e3)
    } else {
        format!("{:.2}s", us / 1e6)
    }
}

/// What a build's condensation cost, for a table column: its condense
/// and order time, `shared` when an earlier build on the same prepared
/// graph paid it, and `none` when the build never read one.
pub fn fmt_condense(r: &BuildReport) -> String {
    match r.condensation {
        CondensationUse::Computed => fmt_duration(r.condense + r.order),
        CondensationUse::Shared => "shared".into(),
        CondensationUse::Unused => "none".into(),
    }
}

/// One-line rendering of a [`BuildReport`]: per-phase wall time
/// (condense / order / label) plus index size. A condensation charged
/// to an earlier build on the same prepared graph renders as "condense
/// shared", and a build that read none says "no condensation".
pub fn fmt_build_report(r: &BuildReport) -> String {
    let preprocess = match r.condensation {
        CondensationUse::Computed => format!(
            "condense {} + order {}",
            fmt_duration(r.condense),
            fmt_duration(r.order)
        ),
        CondensationUse::Shared => "condense shared".to_string(),
        CondensationUse::Unused => "no condensation".to_string(),
    };
    format!(
        "{}: total {} ({preprocess}, label {}), {} / {} entries",
        r.name,
        fmt_duration(r.total),
        fmt_duration(r.label),
        fmt_bytes(r.size_bytes),
        r.size_entries,
    )
}

/// Human-readable byte count.
pub fn fmt_bytes(b: usize) -> String {
    if b < 1 << 10 {
        format!("{b}B")
    } else if b < 1 << 20 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{:.1}MiB", b as f64 / (1024.0 * 1024.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["long-name", "22"]);
        t.row_padded(["padded"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[4], "padded");
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[3].starts_with("long-name"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_checked() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(500)), "500.0µs");
        assert_eq!(fmt_duration(Duration::from_millis(42)), "42.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(3)), "3.00s");
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(12), "12B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0MiB");
    }

    #[test]
    fn timed_returns_result() {
        let (x, d) = timed(|| 2 + 2);
        assert_eq!(x, 4);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn build_report_renders_phases_and_sharing() {
        let mut r = BuildReport {
            name: "GRAIL",
            condensation: CondensationUse::Computed,
            condense: Duration::from_micros(500),
            order: Duration::from_micros(100),
            label: Duration::from_micros(400),
            total: Duration::from_micros(1_000),
            size_bytes: 2048,
            size_entries: 64,
        };
        let line = fmt_build_report(&r);
        assert!(line.contains("GRAIL"));
        assert!(line.contains("condense 500.0µs"));
        assert!(line.contains("order 100.0µs"));
        assert!(line.contains("2.0KiB"));
        assert_eq!(fmt_condense(&r), "600.0µs");
        r.condense = Duration::ZERO;
        r.order = Duration::ZERO;
        r.condensation = CondensationUse::Shared;
        assert!(fmt_build_report(&r).contains("(condense shared, label 400.0µs)"));
        assert_eq!(fmt_condense(&r), "shared");
        r.condensation = CondensationUse::Unused;
        assert!(fmt_build_report(&r).contains("(no condensation, label 400.0µs)"));
        assert_eq!(fmt_condense(&r), "none");
    }
}
