//! Terminal visualization: sparklines and heatmaps.
//!
//! The experiment binaries and the CLI render their series and surfaces
//! directly in the terminal — a week's power curve or the Figure 2/3
//! λ surface is legible at a glance without leaving the shell.

/// Unicode block ramp used by sparklines and heatmaps, light to dark.
const RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders a sparkline of `values` (one character per value). Empty input
/// yields an empty string; a constant series renders at mid-height.
pub fn sparkline(values: &[f64]) -> String {
    let (min, max) = bounds(values);
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                return '·';
            }
            if max > min {
                let idx = ((v - min) / (max - min) * (RAMP.len() - 1) as f64).round() as usize;
                RAMP[idx.min(RAMP.len() - 1)]
            } else {
                RAMP[RAMP.len() / 2]
            }
        })
        .collect()
}

/// Downsamples `values` to at most `width` points (by bucket means) and
/// renders a sparkline.
pub fn sparkline_fit(values: &[f64], width: usize) -> String {
    if width == 0 || values.is_empty() {
        return String::new();
    }
    if values.len() <= width {
        return sparkline(values);
    }
    let bucket = values.len() as f64 / width as f64;
    let compact: Vec<f64> = (0..width)
        .map(|i| {
            let lo = (i as f64 * bucket) as usize;
            let hi = (((i + 1) as f64 * bucket) as usize)
                .min(values.len())
                .max(lo + 1);
            values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect();
    sparkline(&compact)
}

/// Renders a 2-D grid as a shaded heatmap with row/column labels; `None`
/// cells (invalid grid points) render as spaces. Values are normalized
/// over the whole grid.
pub fn heatmap(row_labels: &[String], col_labels: &[String], cells: &[Vec<Option<f64>>]) -> String {
    let flat: Vec<f64> = cells
        .iter()
        .flatten()
        .filter_map(|c| *c)
        .filter(|v| v.is_finite())
        .collect();
    let (min, max) = bounds(&flat);
    let label_w = row_labels
        .iter()
        .map(|l| l.chars().count())
        .max()
        .unwrap_or(0);
    let col_w = col_labels
        .iter()
        .map(|l| l.chars().count())
        .max()
        .unwrap_or(1)
        + 1;

    let mut out = String::new();
    out.push_str(&" ".repeat(label_w + 1));
    for c in col_labels {
        out.push_str(&format!("{c:>col_w$}"));
    }
    out.push('\n');
    for (r, row) in cells.iter().enumerate() {
        let label = row_labels.get(r).map(String::as_str).unwrap_or("");
        out.push_str(&format!("{label:>label_w$} "));
        for cell in row {
            let ch = match cell {
                Some(v) if v.is_finite() => {
                    if max > min {
                        let idx =
                            ((v - min) / (max - min) * (RAMP.len() - 1) as f64).round() as usize;
                        RAMP[idx.min(RAMP.len() - 1)]
                    } else {
                        RAMP[RAMP.len() / 2]
                    }
                }
                _ => ' ',
            };
            out.push_str(&format!("{:>col_w$}", ch));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "{}(min {} = {:.1}, max {} = {:.1})\n",
        " ".repeat(label_w + 1),
        RAMP[0],
        min,
        RAMP[RAMP.len() - 1],
        max
    ));
    out
}

fn bounds(values: &[f64]) -> (f64, f64) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in values {
        if v.is_finite() {
            min = min.min(v);
            max = max.max(v);
        }
    }
    if min > max {
        (0.0, 0.0)
    } else {
        (min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 4);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[3], '█');
        // Monotone input → non-decreasing ramp indices.
        let idx = |c: char| RAMP.iter().position(|&r| r == c).unwrap();
        assert!(idx(chars[0]) <= idx(chars[1]) && idx(chars[1]) <= idx(chars[2]));
    }

    #[test]
    fn sparkline_degenerate_inputs() {
        assert_eq!(sparkline(&[]), "");
        let flat = sparkline(&[5.0, 5.0, 5.0]);
        assert_eq!(flat.chars().count(), 3);
        assert!(flat.chars().all(|c| c == RAMP[RAMP.len() / 2]));
        assert_eq!(sparkline(&[f64::NAN]), "·");
    }

    #[test]
    fn sparkline_fit_downsamples() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let s = sparkline_fit(&values, 40);
        assert_eq!(s.chars().count(), 40);
        assert_eq!(sparkline_fit(&values, 0), "");
        // Short inputs pass through.
        assert_eq!(sparkline_fit(&[1.0, 2.0], 40).chars().count(), 2);
    }

    #[test]
    fn heatmap_renders_grid_with_gaps() {
        let rows = vec!["10".to_string(), "50".to_string()];
        let cols = vec!["50".to_string(), "90".to_string()];
        let cells = vec![vec![Some(2000.0), Some(1300.0)], vec![None, Some(700.0)]];
        let out = heatmap(&rows, &cols, &cells);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        assert!(lines[0].contains("50") && lines[0].contains("90"));
        // The invalid cell renders as whitespace; max cell is the darkest.
        assert!(lines[1].contains('█'));
        assert!(lines[2].contains('▁'));
        assert!(lines[3].contains("max"));
    }
}
