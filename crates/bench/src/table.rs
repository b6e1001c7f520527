//! Plain-text table rendering for experiment output.

/// Renders rows as a fixed-width table with a header and rule.
pub fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "row width must match header");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            // Right-align numerics, left-align text.
            if cell.chars().next().is_some_and(|c| c.is_ascii_digit() || c == '-' || c == '+') {
                line.push_str(&format!("{cell:>w$}", w = w));
            } else {
                line.push_str(&format!("{cell:<w$}", w = w));
            }
        }
        line
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats seconds adaptively (ms below 1s).
pub fn fmt_secs(s: f64) -> String {
    if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Formats bytes as MiB with one decimal.
#[expect(clippy::cast_precision_loss, reason = "byte counts are formatted to one decimal of MiB")]
pub fn fmt_mib(bytes: usize) -> String {
    format!("{:.1}MiB", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let t = render(
            &["name", "value"],
            &[
                vec!["alpha".into(), "1.0".into()],
                vec!["b".into(), "123.45".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].contains("alpha"));
        // numeric right-alignment: both value cells end at same column
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_secs(0.0123), "12.3ms");
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_mib(1024 * 1024), "1.0MiB");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_rows_panic() {
        let _ = render(&["a", "b"], &[vec!["x".into()]]);
    }
}
