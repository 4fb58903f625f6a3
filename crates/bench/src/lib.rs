//! Shared table/series helpers for the `repro` binary.
//!
//! Each `repro` experiment regenerates one table or figure of the
//! paper (see DESIGN.md §4 and EXPERIMENTS.md) and prints aligned text
//! tables plus optional CSV (`--csv`) so the series can be re-plotted.

use std::fmt::Write as _;

/// The default seed every experiment starts from, so published numbers
/// are reproducible bit-for-bit.
pub const SEED: u64 = 0x5eed_0971;

/// A simple aligned text table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row arity must match headers"
        );
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the table body empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", c, w = width[i]);
            }
            out.pop();
            out.pop();
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let total: usize = width.iter().sum::<usize>() + 2 * (ncol - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Print the table, and its CSV too when `csv` is set.
    pub fn print(&self, title: &str, csv: bool) {
        println!("\n== {title} ==");
        print!("{}", self.render());
        if csv {
            println!("\n--- csv ---\n{}", self.to_csv());
        }
    }
}

/// Format a float with fixed precision.
pub fn f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Format a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Render a numeric series as a unicode sparkline (8 levels), so
/// controller trajectories can be eyeballed straight in the terminal.
///
/// Constant series render as a flat mid-level line; empty input gives
/// an empty string.
pub fn sparkline(series: &[f64]) -> String {
    const BARS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    if series.is_empty() {
        return String::new();
    }
    let lo = series.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = series.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = hi - lo;
    series
        .iter()
        .map(|&x| {
            let level = if span <= 0.0 {
                3
            } else {
                (((x - lo) / span) * 7.0).round() as usize
            };
            BARS[level.min(7)]
        })
        .collect()
}

/// Downsample a series to at most `width` points (bucket means) for
/// sparkline rendering.
pub fn downsample(series: &[f64], width: usize) -> Vec<f64> {
    assert!(width >= 1);
    if series.len() <= width {
        return series.to_vec();
    }
    (0..width)
        .map(|b| {
            let s = b * series.len() / width;
            let e = ((b + 1) * series.len() / width).max(s + 1);
            series[s..e].iter().sum::<f64>() / (e - s) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["m", "r"]);
        t.row(["1", "0.10"]).row(["100", "0.25"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('m') && lines[0].contains('r'));
        assert!(lines[3].contains("100"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new(["a", "b"]);
        t.row(["x,y", "he said \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new(["a"]);
        t.row(["1", "2"]);
    }

    #[test]
    fn formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(pct(0.213), "21.3%");
    }

    #[test]
    fn sparkline_levels() {
        assert_eq!(sparkline(&[]), "");
        let s = sparkline(&[0.0, 1.0]);
        assert_eq!(s.chars().count(), 2);
        assert_eq!(s.chars().next(), Some('\u{2581}'));
        assert_eq!(s.chars().last(), Some('\u{2588}'));
        // Constant series: flat, mid-level.
        let flat = sparkline(&[5.0, 5.0, 5.0]);
        assert!(flat.chars().all(|c| c == '\u{2584}'));
    }

    #[test]
    fn downsample_buckets() {
        let series: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let d = downsample(&series, 10);
        assert_eq!(d.len(), 10);
        assert!(d.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(downsample(&[1.0, 2.0], 10), vec![1.0, 2.0]);
    }
}
