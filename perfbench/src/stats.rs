//! Order statistics and the fixed-box hypervolume the benchmark reports.

use unico_surrogate::hypervolume::hypervolume;

/// Median of `xs` (mean of the two middle values for even lengths);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The tail percentile of a timing sample: the highest percentile that
/// still has at least ten samples beyond it, never below the median.
///
/// With `n` samples sorted ascending, the value at rank `n - 11`
/// (0-based) has exactly ten samples above it; its percentile is
/// `100 * (n - 10) / n`. Below 21 samples that rank falls under the
/// median, so the median is reported instead. Returns
/// `(percentile, value)`.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if n < 21 {
        return (50.0, median(xs));
    }
    let pct = 100.0 * (n - 10) as f64 / n as f64;
    (pct, v[n - 11])
}

/// Hypervolume of `front` inside the fixed box `[lo, hi]`, as a share
/// of the box's volume (so `1.0` means the front dominates the whole
/// box). Points are clamped to `lo` from below; points not strictly
/// inside `hi` contribute nothing.
///
/// # Panics
///
/// Panics if the box is degenerate or a point's dimension differs from
/// the box's.
pub fn box_hypervolume(front: &[Vec<f64>], lo: &[f64], hi: &[f64]) -> f64 {
    assert_eq!(lo.len(), hi.len(), "box corners differ in dimension");
    assert!(lo.iter().zip(hi).all(|(l, h)| l < h), "degenerate box");
    let span: Vec<f64> = lo.iter().zip(hi).map(|(l, h)| h - l).collect();
    let shifted: Vec<Vec<f64>> = front
        .iter()
        .map(|p| {
            assert_eq!(p.len(), lo.len(), "point/box dimension mismatch");
            p.iter().zip(lo).map(|(x, l)| (x - l).max(0.0)).collect()
        })
        .collect();
    hypervolume(&shifted, &span) / span.iter().product::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, v) = tail(&xs);
        assert_eq!(pct, 90.0);
        assert_eq!(v, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);

        let xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let (pct, v) = tail(&xs);
        assert_eq!(pct, 75.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_median() {
        let xs: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&xs), (50.0, 8.0));
        let xs: Vec<f64> = (1..=22).map(f64::from).collect();
        let (_, v) = tail(&xs);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn box_hypervolume_of_known_fronts() {
        let lo = [0.0, 0.0];
        let hi = [4.0, 4.0];
        // One point at (2, 2) dominates a quarter of the box.
        assert_eq!(box_hypervolume(&[vec![2.0, 2.0]], &lo, &hi), 0.25);
        // Two staircase points: 4*2 + 3*4 - 3*2 = 14 of 16.
        let hv = box_hypervolume(&[vec![1.0, 3.0], vec![2.0, 1.0]], &[1.0, 1.0], &[5.0, 5.0]);
        assert_eq!(hv, 14.0 / 16.0);
        // Points outside the box count for nothing; points below lo
        // are clamped onto it.
        assert_eq!(box_hypervolume(&[vec![5.0, 1.0]], &lo, &hi), 0.0);
        assert_eq!(box_hypervolume(&[vec![-1.0, -1.0]], &lo, &hi), 1.0);
        // Three dimensions, shifted box.
        let hv = box_hypervolume(&[vec![2.0, 2.0, 2.0]], &[1.0, 1.0, 1.0], &[3.0, 3.0, 3.0]);
        assert_eq!(hv, 0.125);
    }
}
