//! The estimators every metric is built from: nearest-rank percentiles,
//! medians, quartiles and geometric means.
//!
//! Timings are reported as a median plus the highest percentile that still
//! has at least ten samples beyond it (p90 at ≥ 150 ops), per-program rows
//! are averaged with the geometric mean, and every value travels with its
//! sample count.

/// Nearest-rank percentile of `samples` (`p` in `0..=100`): the smallest
/// sample with at least `p` percent of the set at or below it.  `None` for
/// an empty set.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median: the mean of the two middle samples for even-sized sets, so
/// it is the estimator `statistics.median` (and the driver) uses.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The floor of samples that all measured the same work: the fastest one.
///
/// Interference on a shared host only ever adds time, so the fast end of a
/// leg's samples is what the code costs and the rest is what the
/// neighbours cost.  On the 2-CPU container this benchmark was sized on,
/// metrics built from per-leg medians moved 5-22 % between identical runs;
/// built from per-leg floors, 2-5 %.
pub fn floor(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().min_by(f64::total_cmp)
}

/// First and third quartile (nearest-rank p25 / p75).
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    Some((percentile(samples, 25.0)?, percentile(samples, 75.0)?))
}

/// Geometric mean of strictly positive values; `None` when the set is
/// empty or holds a non-positive value (a ratio of a failed leg).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Distance between the extremes of `values` as a share of their median —
/// the spread `compare` holds against a metric's bound.  0 for fewer than
/// two values.
pub fn relative_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    match median(values) {
        Some(m) if m != 0.0 => (hi - lo) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples, 100.0), Some(100.0));
        assert_eq!(percentile(&samples, 0.1), Some(1.0));
        assert_eq!(percentile(&[30.0, 10.0, 20.0], 50.0), Some(20.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // 150 ops leave 15 samples beyond the p90.
        let ops: Vec<f64> = (1..=150).map(f64::from).collect();
        let p90 = percentile(&ops, 90.0).unwrap();
        assert_eq!(ops.iter().filter(|v| **v > p90).count(), 15);
    }

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let samples: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(quartiles(&samples), Some((2.0, 6.0)));
    }

    #[test]
    fn floor_is_the_fastest_sample() {
        assert_eq!(floor(&[3.0, 1.5, 2.0]), Some(1.5));
        assert_eq!(floor(&[]), None);
    }

    #[test]
    fn geomean_averages_ratios() {
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        assert_eq!(relative_spread(&[10.0]), 0.0);
        assert!((relative_spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }
}
