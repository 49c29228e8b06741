//! Result tables: aligned terminal rendering plus CSV and JSON export, one
//! table per paper exhibit or bench workload. EXPERIMENTS.md is assembled
//! from these.

use std::fmt::Write as _;
use std::path::Path;

use isrl_obs::Json;

/// A rectangular result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Identifier matching the paper exhibit (e.g. "fig9a").
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: impl Into<String>, title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the cell count disagrees with the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width mismatch in {}",
            self.id
        );
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// CSV serialization (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes `<dir>/<id>.csv`, creating the directory as needed.
    pub fn save_csv(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{}.csv", self.id)), self.to_csv())
    }

    /// JSON serialization: `{id, title, rows: [{header: cell, ...}, ...]}`.
    /// Cells that parse as finite numbers become JSON numbers, everything
    /// else strings.
    pub fn to_json(&self) -> Json {
        let cell = |c: &String| match c.parse::<f64>() {
            Ok(v) if v.is_finite() => Json::Num(v),
            _ => Json::Str(c.clone()),
        };
        let rows = self
            .rows
            .iter()
            .map(|row| {
                Json::obj(
                    self.headers
                        .iter()
                        .cloned()
                        .zip(row.iter().map(cell))
                        .collect(),
                )
            })
            .collect();
        Json::obj(vec![
            ("id".into(), self.id.as_str().into()),
            ("title".into(), self.title.as_str().into()),
            ("rows".into(), Json::Arr(rows)),
        ])
    }

    /// Writes the JSON serialization to `path`.
    pub fn save_json(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, format!("{}\n", self.to_json()))
    }
}

/// A bench artifact: `{"provenance": provenance, "tables": [<table>...]}`,
/// the one shape of every `BENCH_*.json` that `bench_all` writes.
pub fn artifact(provenance: Json, tables: &[Table]) -> Json {
    Json::obj(vec![
        ("provenance".into(), provenance),
        (
            "tables".into(),
            Json::Arr(tables.iter().map(Table::to_json).collect()),
        ),
    ])
}

/// Formats a float with 2 decimal places (the paper's table precision).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 4 decimal places (regret ratios).
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a duration in seconds with adaptive precision.
pub fn secs(s: f64) -> String {
    if s < 0.001 {
        format!("{:.2}ms", s * 1e3)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("t1", "demo", &["algo", "rounds"]);
        t.push_row(vec!["EA".into(), "4.20".into()]);
        t.push_row(vec!["SinglePass".into(), "727.00".into()]);
        let r = t.render();
        assert!(r.contains("t1"));
        assert!(r.contains("SinglePass"));
        // Both data rows end aligned on the rounds column.
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn csv_round_trips_through_data_crate() {
        let mut t = Table::new("t2", "demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let parsed = isrl_data::csv::parse(&t.to_csv()).unwrap();
        assert_eq!(parsed.header, vec!["a", "b"]);
        assert_eq!(parsed.rows[0], vec!["1", "2"]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn push_row_checks_width() {
        let mut t = Table::new("t3", "demo", &["only"]);
        t.push_row(vec!["a".into(), "b".into()]);
    }

    #[test]
    fn artifact_parses_back_with_numbers_and_quoted_strings() {
        let mut hp = Table::new("hp", "hot path", &["algo", "ms", "note"]);
        hp.push_row(vec!["EA".into(), "3.40".into(), "d=4 \"cap\"".into()]);
        hp.push_row(vec!["AA".into(), "-0.5".into(), "".into()]);
        let mut lp = Table::new("lp", "warm", &["d", "divergences"]);
        lp.push_row(vec!["20".into(), "0".into()]);
        let provenance = Json::obj(vec![
            ("commit".into(), "abc123".into()),
            ("cpu".into(), "x86 \"test\"".into()),
            ("nproc".into(), 2usize.into()),
            ("command".into(), "bench_all hotpath".into()),
        ]);
        let text = artifact(provenance, &[hp, lp]).to_string();
        let doc = isrl_obs::json::parse(&text).unwrap();
        let prov = doc.get("provenance").unwrap();
        assert_eq!(prov.get("cpu").unwrap().as_str(), Some("x86 \"test\""));
        assert_eq!(prov.get("nproc").unwrap().as_f64(), Some(2.0));
        let tables = doc.get("tables").unwrap().as_arr().unwrap();
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].get("id").unwrap().as_str(), Some("hp"));
        let rows = tables[0].get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("ms").unwrap().as_f64(), Some(3.4));
        assert_eq!(rows[1].get("ms").unwrap().as_f64(), Some(-0.5));
        assert_eq!(rows[0].get("algo").unwrap().as_str(), Some("EA"));
        assert_eq!(rows[0].get("note").unwrap().as_str(), Some("d=4 \"cap\""));
        assert_eq!(rows[1].get("note").unwrap().as_str(), Some(""));
        let lp_rows = tables[1].get("rows").unwrap().as_arr().unwrap();
        assert_eq!(lp_rows[0].get("divergences").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(3.46159), "3.46");
        assert_eq!(f4(0.123456), "0.1235");
        assert_eq!(secs(0.0000005), "0.00ms");
        assert_eq!(secs(0.5), "500.0ms");
        assert_eq!(secs(2.0), "2.00s");
    }
}
