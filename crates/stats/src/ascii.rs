//! Terminal rendering of series — the harness's way of "drawing" the
//! paper's figures into a log file.

/// Renders `(x, y)` points as a fixed-size ASCII chart.
///
/// The chart is intentionally crude — its job is to make the *shape* of a
/// reproduction (buffer blow-up, delay spike at a flow arrival, contention
/// window staircase) visible in the harness log and EXPERIMENTS.md
/// without any plotting dependency.
pub fn render_series(title: &str, points: &[(f64, f64)], width: usize, height: usize) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    if points.is_empty() || width == 0 || height == 0 {
        out.push_str("  (no data)\n");
        return out;
    }
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (0.0f64, f64::NEG_INFINITY);
    for &(x, y) in points {
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        ymin = ymin.min(y);
        ymax = ymax.max(y);
    }
    if !xmax.is_finite() || !ymax.is_finite() {
        out.push_str("  (non-finite data)\n");
        return out;
    }
    if (xmax - xmin).abs() < f64::EPSILON {
        xmax = xmin + 1.0;
    }
    if (ymax - ymin).abs() < f64::EPSILON {
        ymax = ymin + 1.0;
    }

    // Column-wise max (so spikes survive downsampling).
    let mut cols: Vec<Option<f64>> = vec![None; width];
    for &(x, y) in points {
        let c = (((x - xmin) / (xmax - xmin)) * (width - 1) as f64).round() as usize;
        let c = c.min(width - 1);
        cols[c] = Some(cols[c].map_or(y, |m: f64| m.max(y)));
    }

    let mut grid = vec![vec![' '; width]; height];
    for (c, v) in cols.iter().enumerate() {
        if let Some(y) = v {
            let r = (((y - ymin) / (ymax - ymin)) * (height - 1) as f64).round() as usize;
            let r = (height - 1) - r.min(height - 1);
            grid[r][c] = '*';
        }
    }

    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{ymax:9.2} |")
        } else if i == height - 1 {
            format!("{ymin:9.2} |")
        } else {
            "          |".to_string()
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "          +{}\n           x: {:.1} .. {:.1}\n",
        "-".repeat(width),
        xmin,
        xmax
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_monotone_ramp() {
        let pts: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, i as f64)).collect();
        let s = render_series("ramp", &pts, 40, 10);
        assert!(s.starts_with("ramp\n"));
        let lines: Vec<&str> = s.lines().collect();
        // Title + height rows + axis + range line.
        assert_eq!(lines.len(), 1 + 10 + 2);
        // Top row holds the max, bottom row the min.
        assert!(lines[1].contains('*'));
        assert!(lines[10].contains('*'));
        assert!(lines[1].contains("99.00"));
        assert!(lines[10].contains("0.00"));
    }

    #[test]
    fn empty_series_is_graceful() {
        let s = render_series("empty", &[], 40, 10);
        assert!(s.contains("(no data)"));
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let pts = vec![(0.0, 5.0), (1.0, 5.0)];
        let s = render_series("flat", &pts, 20, 5);
        assert!(s.contains('*'));
    }

    #[test]
    fn spike_survives_downsampling() {
        let mut pts: Vec<(f64, f64)> = (0..1000).map(|i| (i as f64, 1.0)).collect();
        pts[500].1 = 100.0;
        let s = render_series("spike", &pts, 30, 8);
        assert!(s.contains("100.00"), "column max must keep the spike:\n{s}");
    }
}
