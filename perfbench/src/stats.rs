//! Order statistics for the reported distributions.

/// The median (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest order statistic with at least ten samples beyond it, and
/// the percentile it sits at. With ten samples or fewer nothing has ten
/// beyond it; the maximum stands in and the percentile reads 100.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "tail of no samples");
    if n < 11 {
        return (v[n - 1], 100.0);
    }
    let i = n - 11;
    (v[i], 100.0 * i as f64 / (n - 1) as f64)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let (v, p) = tail(&xs);
        assert_eq!(v, 89.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!((p - 89.89).abs() < 0.01);
        assert_eq!(tail(&[1.0, 5.0]), (5.0, 100.0));
    }
}
