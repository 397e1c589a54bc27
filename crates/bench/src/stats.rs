//! Small statistics helpers for experiment series: medians, cumulative
//! distributions, and least-squares growth-exponent estimation (used to
//! check the *shape* claims of the paper — e.g. "|H| grows ~n²").

/// Median of a slice (empty → `None`). Does not require sorted input.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    })
}

/// Arithmetic mean (empty → `None`).
#[must_use]
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Cumulative counts of `values` at the given thresholds: element `i` is
/// `#{v ≤ thresholds[i]}` — the series behind the paper's Figure 16.
#[must_use]
pub fn cumulative_at(values: &[f64], thresholds: &[f64]) -> Vec<usize> {
    thresholds
        .iter()
        .map(|&t| values.iter().filter(|&&v| v <= t).count())
        .collect()
}

/// Least-squares slope of `log y` against `log x` — the growth exponent
/// `b` in `y ≈ a·x^b`. Points with non-positive coordinates are skipped.
/// Returns `None` with fewer than two usable points.
#[must_use]
pub fn loglog_slope(points: &[(f64, f64)]) -> Option<f64> {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return None;
    }
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn cumulative_counts() {
        let v = [0.1, 0.3, 0.5, 0.7];
        assert_eq!(cumulative_at(&v, &[0.2, 0.4, 0.6, 1.0]), vec![1, 2, 3, 4]);
    }

    #[test]
    fn loglog_slope_recovers_exponent() {
        // y = 3 x^2
        let pts: Vec<(f64, f64)> = (1..=6)
            .map(|i| (i as f64, 3.0 * (i as f64).powi(2)))
            .collect();
        let b = loglog_slope(&pts).unwrap();
        assert!((b - 2.0).abs() < 1e-9, "{b}");
    }

    #[test]
    fn loglog_slope_degenerate() {
        assert!(loglog_slope(&[(1.0, 1.0)]).is_none());
        assert!(loglog_slope(&[(0.0, 1.0), (-1.0, 2.0)]).is_none());
        // All x identical → vertical line.
        assert!(loglog_slope(&[(2.0, 1.0), (2.0, 3.0)]).is_none());
    }
}
