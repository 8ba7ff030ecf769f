//! The hardware robustness (sensitivity) metric `R` (paper §3.4).
//!
//! After a mapping search, a hardware configuration is assessed not only
//! by its best-found mapping but by how *fragile* that assessment is:
//! how far the `(latency, power)` of the search's "sub-optimal" mapping
//! (the `(1−α)` right-tail percentile of the loss history) sits from the
//! optimum, and in which direction. `R = Δ·(1 + F(θ))`, where `Δ` is the
//! normalized distance between the two points and `F(θ)` penalizes the
//! direction of the displacement — power variation more than latency
//! variation, and power *increase* most of all.

use std::f64::consts::PI;

use unico_mapping::{EvalRecord, SearchHistory};

/// The paper's direction-penalty polynomial
/// `F(θ) = 6/π²·θ² − 5/π·θ + 1` for `θ ∈ [0, π]`.
///
/// `F(0) = 1`, `F(π/2) = 0`, `F(π) = 2`, so the total penalty `1 + F(θ)`
/// spans `2 → 1 → 3` across the half-circle.
pub fn f_theta(theta: f64) -> f64 {
    let t = theta.clamp(0.0, PI);
    6.0 / (PI * PI) * t * t - 5.0 / PI * t + 1.0
}

/// Robustness from explicit optimal / sub-optimal `(latency, power)`
/// pairs. Axes are normalized by the optimal values so the metric is
/// scale-free.
///
/// Returns `0` for a perfectly robust configuration (`Δ = 0`).
///
/// # Panics
///
/// Panics if the optimal latency or power is not strictly positive.
pub fn robustness_from_points(
    opt_latency: f64,
    opt_power: f64,
    sub_latency: f64,
    sub_power: f64,
) -> f64 {
    assert!(
        opt_latency > 0.0 && opt_power > 0.0,
        "optimal latency/power must be positive"
    );
    // Normalized displacement from the optimum to the sub-optimal point.
    let dx = (sub_latency - opt_latency) / opt_latency; // ≥ 0 by monotonicity
    let dy = (sub_power - opt_power) / opt_power;
    let delta = (dx * dx + dy * dy).sqrt();
    if delta < 1e-15 {
        return 0.0;
    }
    // θ per the paper's Fig. 5(b): π/2 when only latency varies; < π/2
    // when the sub-optimal point also has *higher* power (both improve
    // toward the optimum); > π/2 when moving to the optimum *increases*
    // power.
    let theta = PI / 2.0 - dy.atan2(dx.max(1e-15));
    delta * (1.0 + f_theta(theta))
}

/// Robustness of one mapping-search history: optimal = the converged
/// best, sub-optimal = the record at quantile `α` of the loss history
/// counted from the best side (`α = 0.05` ⇒ a mapping just inside the
/// best 5% — Fig. 5(a)'s *promising but sub-optimal* orange point).
///
/// `Δ` then measures how sharp the optimum is relative to the other
/// near-converged mappings the search found: a flat top (many
/// alternatives perform like the best) gives `R ≈ 0`, a needle-like
/// optimum that must be hit exactly gives a large `R`. Empirically this
/// sharp-top signal is what anti-correlates with generalization to
/// unseen workloads (validated by the Fig. 8 reproduction); measuring
/// against the *worst* tail instead inverts the correlation, because
/// flexible hardware also admits many bad mappings.
///
/// Returns `None` when the history has no feasible evaluations.
pub fn robustness_of_history(history: &SearchHistory, alpha: f64) -> Option<f64> {
    let opt = history.best()?;
    let [sub] = history.loss_quantile_records([alpha.clamp(0.0, 1.0)])?;
    robustness_of_records(opt, sub)
}

/// `R` of the sub-optimal record `sub` against the optimum `opt`;
/// `None` when the optimum has no positive latency and power.
fn robustness_of_records(opt: EvalRecord, sub: EvalRecord) -> Option<f64> {
    if opt.latency_s <= 0.0 || opt.power_mw <= 0.0 {
        return None;
    }
    Some(robustness_from_points(
        opt.latency_s,
        opt.power_mw,
        sub.latency_s.max(opt.latency_s),
        sub.power_mw,
    ))
}

/// Ensemble robustness of one history: mean of [`robustness_of_history`]
/// over a small ladder of quantiles around `alpha`
/// (`{0.4α, α, 2α, 4α}`). A single percentile of a few-hundred-sample
/// loss history is a noisy estimator; averaging nearby quantiles
/// measurably tightens the correlation between `R` and generalization
/// (see the Fig. 8 reproduction notes in EXPERIMENTS.md). The history
/// is sorted once for the whole ladder.
pub fn robustness_ensemble(history: &SearchHistory, alpha: f64) -> Option<f64> {
    let ladder = [0.4 * alpha, alpha, 2.0 * alpha, 4.0 * alpha].map(|a| a.clamp(0.0, 1.0));
    let opt = history.best()?;
    let vals: Vec<f64> = history
        .loss_quantile_records(ladder)?
        .into_iter()
        .filter_map(|sub| robustness_of_records(opt, sub))
        .collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

/// Mean ensemble robustness across several job histories (one per
/// layer/network); `None` if no job yields a value.
pub fn aggregate_robustness(histories: &[&SearchHistory], alpha: f64) -> Option<f64> {
    let vals: Vec<f64> = histories
        .iter()
        .filter_map(|h| robustness_ensemble(h, alpha))
        .collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unico_mapping::MappingOutcome;

    #[test]
    fn f_theta_anchor_values() {
        assert!((f_theta(0.0) - 1.0).abs() < 1e-12);
        assert!(f_theta(PI / 2.0).abs() < 1e-12);
        assert!((f_theta(PI) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn f_theta_asymmetric_preference() {
        // θ slightly below π/2 (power also improves) is preferred over
        // the mirrored angle above π/2 (power worsens).
        let below = f_theta(PI / 2.0 - 0.3);
        let above = f_theta(PI / 2.0 + 0.3);
        assert!(above > below);
    }

    #[test]
    fn zero_displacement_is_ideal() {
        assert_eq!(robustness_from_points(1.0, 2.0, 1.0, 2.0), 0.0);
    }

    #[test]
    fn pure_latency_variation_gives_delta() {
        // Sub-optimal 10% slower at identical power: θ = π/2, R = Δ = 0.1.
        let r = robustness_from_points(1.0, 100.0, 1.1, 100.0);
        assert!((r - 0.1).abs() < 1e-9, "r {r}");
    }

    #[test]
    fn power_increase_toward_optimum_penalized_most() {
        // Case (ii): optimum has HIGHER power than the sub-optimal point
        // (moving orange→green increases power): θ > π/2, penalty > Δ.
        let r_bad = robustness_from_points(1.0, 100.0, 1.1, 80.0);
        // Case (i): optimum improves both: θ < π/2, penalty in (Δ, 2Δ].
        let r_good = robustness_from_points(1.0, 100.0, 1.1, 120.0);
        let delta_bad = (0.1f64.powi(2) + 0.2f64.powi(2)).sqrt();
        assert!(r_bad > delta_bad, "θ>π/2 must penalize beyond Δ");
        assert!(r_bad > r_good, "power increase must be least favorable");
    }

    #[test]
    fn r_bounded_by_analytic_envelope() {
        // `1 + F(θ)` spans `[23/24, 3]` over `θ ∈ [0, π]` (the polynomial
        // dips slightly below 1 at its vertex θ* = 5π/12).
        for (sl, sp) in [(1.5, 50.0), (1.01, 300.0), (2.0, 100.0), (1.2, 99.0)] {
            let r = robustness_from_points(1.0, 100.0, sl, sp);
            let dx: f64 = sl - 1.0;
            let dy: f64 = (sp - 100.0) / 100.0;
            let delta = (dx * dx + dy * dy).sqrt();
            assert!(r >= (23.0 / 24.0) * delta - 1e-9, "R ≥ 23Δ/24 fails");
            assert!(r <= 3.0 * delta + 1e-9, "R ≤ 3Δ fails");
        }
    }

    #[test]
    fn f_theta_vertex_minimum() {
        let theta_star = 5.0 * PI / 12.0;
        assert!((f_theta(theta_star) - (1.0 - 25.0 / 24.0)).abs() < 1e-12);
        // The vertex is the global minimum.
        for i in 0..=100 {
            let t = PI * i as f64 / 100.0;
            assert!(f_theta(t) >= f_theta(theta_star) - 1e-12);
        }
    }

    #[test]
    fn history_robustness_flat_search_is_zero() {
        let mut h = SearchHistory::new();
        for _ in 0..20 {
            h.push(MappingOutcome {
                loss: 1.0,
                latency_s: 1.0,
                power_mw: 50.0,
            });
        }
        let r = robustness_of_history(&h, 0.05).unwrap();
        assert!(r.abs() < 1e-12);
    }

    #[test]
    fn history_robustness_sensitive_search_positive() {
        let mut h = SearchHistory::new();
        for i in 0..40 {
            let loss = 10.0 - 0.2 * i as f64;
            h.push(MappingOutcome {
                loss,
                latency_s: loss,
                power_mw: 100.0 + loss,
            });
        }
        let r = robustness_of_history(&h, 0.05).unwrap();
        assert!(r > 0.0);
    }

    #[test]
    fn aggregate_skips_empty_histories() {
        let mut a = SearchHistory::new();
        a.push(MappingOutcome {
            loss: 2.0,
            latency_s: 2.0,
            power_mw: 10.0,
        });
        let empty = SearchHistory::new();
        let r = aggregate_robustness(&[&a, &empty], 0.05);
        assert!(r.is_some());
        assert!(aggregate_robustness(&[&empty], 0.05).is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_optimum_panics() {
        let _ = robustness_from_points(0.0, 1.0, 1.0, 1.0);
    }
}
