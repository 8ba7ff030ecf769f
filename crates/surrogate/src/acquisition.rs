//! Acquisition functions and kriging-believer batch selection.

use crate::gp::{GaussianProcess, PoolPosterior};

/// Which acquisition function batch selection maximizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AcquisitionKind {
    /// Expected improvement over the incumbent best (minimization).
    ExpectedImprovement,
    /// Lower-confidence bound `mean − beta·stddev` (minimization), with
    /// exploration weight `beta`.
    LowerConfidenceBound {
        /// Exploration weight.
        beta: f64,
    },
}

/// Standard normal probability density.
fn phi(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal cumulative distribution (Abramowitz–Stegun style
/// erf-based approximation; absolute error < 1.5e-7, far below any noise
/// level in this application).
fn big_phi(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    // Abramowitz & Stegun 7.1.26.
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Expected improvement of a Gaussian posterior `(mean, variance)` below
/// the incumbent `best` (minimization). Returns `0` for zero variance and
/// no mean improvement.
pub fn expected_improvement(mean: f64, variance: f64, best: f64) -> f64 {
    let std = variance.max(0.0).sqrt();
    if std < 1e-12 {
        return (best - mean).max(0.0);
    }
    let z = (best - mean) / std;
    ((best - mean) * big_phi(z) + std * phi(z)).max(0.0)
}

/// Lower-confidence-bound score (lower is more promising). Exposed as a
/// *maximizable* acquisition value: `−(mean − beta·stddev)`.
pub fn ucb(mean: f64, variance: f64, beta: f64) -> f64 {
    -(mean - beta * variance.max(0.0).sqrt())
}

/// Selects a batch of `batch` candidate indices from `pool` maximizing
/// the acquisition under the kriging-believer strategy: after each pick,
/// the GP is updated with a hallucinated observation at the predicted
/// mean so subsequent picks spread out.
///
/// The GP is consumed (hallucinations mutate it); pass a clone if the
/// original is still needed.
///
/// # Panics
///
/// Panics if `pool` is empty or `batch == 0`.
pub fn select_batch(
    mut gp: GaussianProcess,
    pool: &[Vec<f64>],
    best: f64,
    kind: AcquisitionKind,
    batch: usize,
) -> Vec<usize> {
    assert!(!pool.is_empty(), "empty candidate pool");
    assert!(batch > 0, "batch must be positive");
    let picks = batch.min(pool.len());
    let mut chosen: Vec<usize> = Vec::with_capacity(picks);
    // The pool's kernel rows and forward solves carry across picks: a
    // hallucination appends one row to the factor, so each pick adds one
    // row across the pool instead of re-solving in O(n²), with the
    // prediction bits unchanged. The buffers die with this call.
    let mut posterior = PoolPosterior::new(pool, gp.len() + picks - 1);
    loop {
        let mut best_pick = None;
        let mut best_score = f64::NEG_INFINITY;
        let (means, vars) = posterior.update(&gp);
        for (i, (&mean, &var)) in means.iter().zip(vars).enumerate() {
            if chosen.contains(&i) {
                continue;
            }
            let score = match kind {
                AcquisitionKind::ExpectedImprovement => expected_improvement(mean, var, best),
                AcquisitionKind::LowerConfidenceBound { beta } => ucb(mean, var, beta),
            };
            if score > best_score {
                best_score = score;
                best_pick = Some((i, mean));
            }
        }
        let (idx, mean) = best_pick.expect("pool larger than chosen set");
        chosen.push(idx);
        if chosen.len() == picks {
            return chosen;
        }
        // A failed hallucination leaves the GP unchanged and only
        // degrades batch diversity; keep going.
        let _ = gp.hallucinate(pool[idx].clone(), mean);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn erf_reference_values() {
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((big_phi(0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn ei_zero_when_mean_far_above_best() {
        let ei = expected_improvement(10.0, 0.01, 0.0);
        assert!(ei < 1e-6);
    }

    #[test]
    fn ei_grows_with_variance() {
        let low = expected_improvement(1.0, 0.01, 1.0);
        let high = expected_improvement(1.0, 1.0, 1.0);
        assert!(high > low);
    }

    #[test]
    fn ei_deterministic_improvement_at_zero_variance() {
        assert!((expected_improvement(0.5, 0.0, 1.0) - 0.5).abs() < 1e-12);
        assert_eq!(expected_improvement(2.0, 0.0, 1.0), 0.0);
    }

    #[test]
    fn ucb_prefers_uncertain_low_mean() {
        assert!(ucb(0.5, 1.0, 2.0) > ucb(0.5, 0.0, 2.0));
        assert!(ucb(0.1, 0.0, 2.0) > ucb(0.9, 0.0, 2.0));
    }

    #[test]
    fn batch_selection_is_diverse() {
        let xs: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 / 5.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] - 0.5).powi(2)).collect();
        let mut gp = GaussianProcess::new(KernelKind::Matern52, 1);
        gp.fit(&xs, &ys, &mut StdRng::seed_from_u64(3)).unwrap();
        let pool: Vec<Vec<f64>> = (0..21).map(|i| vec![i as f64 / 20.0]).collect();
        let picks = select_batch(gp, &pool, 0.0, AcquisitionKind::ExpectedImprovement, 4);
        assert_eq!(picks.len(), 4);
        let mut uniq = picks.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 4, "batch must not repeat candidates");
    }

    #[test]
    fn batch_capped_at_pool_size() {
        let gp = GaussianProcess::new(KernelKind::Matern52, 1);
        let pool = vec![vec![0.1], vec![0.9]];
        let picks = select_batch(
            gp,
            &pool,
            1.0,
            AcquisitionKind::LowerConfidenceBound { beta: 1.0 },
            5,
        );
        assert_eq!(picks.len(), 2);
    }
}
