//! Minimal ASCII chart rendering for the experiments: horizontal bars
//! (Figure 10-style comparisons) and stacked category bars (Figure 11-style
//! breakdowns).

/// Render a horizontal bar chart. Values are scaled so the largest bar
/// spans `width` cells; each line is `label | ███··· value`.
pub fn bar_chart(title: &str, rows: &[(String, f64)], width: usize) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let max = rows.iter().map(|(_, v)| *v).fold(0.0f64, f64::max);
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, value) in rows {
        let cells = if max > 0.0 { ((value / max) * width as f64).round() as usize } else { 0 };
        out.push_str(&format!(
            "  {label:<label_w$} |{}{} {value:.2}\n",
            "#".repeat(cells),
            " ".repeat(width.saturating_sub(cells)),
        ));
    }
    out
}

/// Render stacked 100%-bars from per-row category fractions. `categories`
/// supplies one glyph per category; fractions are normalized per row.
pub fn stacked_chart(
    title: &str,
    categories: &[(&str, char)],
    rows: &[(String, Vec<f64>)],
    width: usize,
) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push_str("  [");
    for (i, (name, glyph)) in categories.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push(*glyph);
        out.push_str(" = ");
        out.push_str(name);
    }
    out.push_str("]\n");
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, fracs) in rows {
        let total: f64 = fracs.iter().sum();
        let mut bar = String::new();
        let mut used = 0usize;
        for (i, frac) in fracs.iter().enumerate() {
            let share = if total > 0.0 { frac / total } else { 0.0 };
            let mut cells = (share * width as f64).round() as usize;
            if i == fracs.len() - 1 {
                cells = width.saturating_sub(used);
            }
            let glyph = categories.get(i).map_or('?', |(_, g)| *g);
            bar.extend(std::iter::repeat_n(glyph, cells.min(width - used)));
            used = (used + cells).min(width);
        }
        out.push_str(&format!("  {label:<label_w$} |{bar}|\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_chart_scales_to_width() {
        let rows = vec![("a".to_string(), 10.0), ("bb".to_string(), 5.0)];
        let s = bar_chart("t", &rows, 20);
        assert!(s.contains(&"#".repeat(20)), "longest bar fills the width:\n{s}");
        assert!(s.contains(&"#".repeat(10)), "half-value bar is half as long:\n{s}");
        assert!(s.contains("bb |"));
    }

    #[test]
    fn bar_chart_handles_zeroes() {
        let rows = vec![("z".to_string(), 0.0)];
        let s = bar_chart("t", &rows, 10);
        assert!(s.contains("z |"));
        assert!(!s.contains('#'));
    }

    #[test]
    fn stacked_chart_fills_exactly() {
        let cats = [("move", 'm'), ("compute", 'c')];
        let rows = vec![("sys".to_string(), vec![0.25, 0.75])];
        let s = stacked_chart("t", &cats, &rows, 40);
        let bar: String = s.lines().nth(1).unwrap().chars().collect();
        let m = bar.chars().filter(|&c| c == 'm').count();
        let c = bar.chars().filter(|&c| c == 'c').count();
        assert_eq!(m + c, 40, "bar must fill the width: {bar}");
        assert_eq!(m, 10);
    }

    #[test]
    fn stacked_chart_degenerate_rows() {
        let cats = [("a", 'a')];
        let rows = vec![("x".to_string(), vec![0.0])];
        let s = stacked_chart("t", &cats, &rows, 10);
        assert!(s.contains("x "), "{s}");
    }
}
