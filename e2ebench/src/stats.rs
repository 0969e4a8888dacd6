//! Order statistics over measured samples.

/// The `q`-quantile of `values` (0 ≤ q ≤ 1) by linear interpolation
/// between closest ranks; `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The 90th percentile, or `None` when fewer than ten samples lie
/// beyond it (a percentile with fewer is no tail).
pub fn p90(values: &[f64]) -> Option<f64> {
    (values.len() >= 100).then(|| quantile(values, 0.9))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(p90(&few), None);
        let enough: Vec<f64> = (0..100).map(f64::from).collect();
        assert!((p90(&enough).unwrap() - 89.1).abs() < 1e-9);
    }
}
