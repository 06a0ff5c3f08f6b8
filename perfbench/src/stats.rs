//! Order statistics, geometric mean and trial ordering.
//!
//! The quartiles follow Python's `statistics.quantiles(data, n=4)` (its
//! default "exclusive" method), so the spread a run prints is the spread an
//! outside check computes from the same values.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`. Needs two values or more.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // Negative for very short inputs, as in Python: the end values are
        // then extrapolated, not clamped.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        *slot = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    Some(out)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`. NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return f64::NAN;
    }
    // The epsilon keeps float error (99.9 / 100 * 10_000 = 9990.000…2) from
    // bumping an exact rank.
    let rank = ((p / 100.0) * s.len() as f64 - 1e-9).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] with at least `beyond`
/// samples above it, and its value. `None` when even the median has fewer
/// than `beyond` samples above it.
pub fn tail(values: &[f64], beyond: usize) -> Option<(f64, f64)> {
    let n = values.len() as f64;
    TAIL_LADDER
        .iter()
        .find(|&&p| n * (1.0 - p / 100.0) >= beyond as f64 - 1e-9)
        .map(|&p| (p, percentile(values, p)))
}

/// Geometric mean of positive values. NaN when empty or any value is not
/// positive and finite.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The order in which `sides` competing measurements run in round `round`:
/// a rotation that starts at `round % sides`, so every side runs first
/// equally often. With two sides this alternates A-B, B-A, A-B, …
pub fn rotation(round: usize, sides: usize) -> Vec<usize> {
    (0..sides).map(|k| (round + k) % sides).collect()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 1.0), 5.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred, 10), Some((90.0, 90.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand, 10), Some((99.0, 990.0)));
        let ten_thousand: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&ten_thousand, 10), Some((99.9, 9990.0)));
        let thirty: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&thirty, 10), Some((50.0, 15.0)));
        assert_eq!(tail(&[1.0; 19], 10), None);
    }

    #[test]
    fn geomean_known_answers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }

    #[test]
    fn trial_order_alternates_and_rotates() {
        assert_eq!(rotation(0, 2), vec![0, 1]);
        assert_eq!(rotation(1, 2), vec![1, 0]);
        assert_eq!(rotation(2, 2), vec![0, 1]);
        assert_eq!(rotation(4, 3), vec![1, 2, 0]);
        // Over any `sides` consecutive rounds each side leads exactly once.
        for start in 0..5 {
            let mut firsts: Vec<usize> = (start..start + 3).map(|r| rotation(r, 3)[0]).collect();
            firsts.sort();
            assert_eq!(firsts, vec![0, 1, 2]);
        }
    }
}
