//! Pinning tests for the paper's robustness metric `R = Δ·(1 + F(θ))`
//! (§3.4): exact values at the geometry's edge cases — θ = 0 (pure
//! power variation, penalty 2Δ), θ = π/2 (pure latency variation,
//! penalty Δ), θ = π (power increase toward the optimum, penalty 3Δ),
//! Δ = 0 (perfect robustness), and colinear 45° displacements — plus
//! the scale-freeness and ensemble-averaging contracts the outer loop
//! relies on.

use std::f64::consts::PI;

use proptest::prelude::*;
use unico_core::robustness::{
    aggregate_robustness, f_theta, robustness_ensemble, robustness_from_points,
    robustness_of_history,
};
use unico_mapping::{EvalRecord, MappingOutcome, SearchHistory};

const TOL: f64 = 1e-12;

#[test]
fn f_theta_exact_at_anchors() {
    // F(θ) = 6/π²·θ² − 5/π·θ + 1.
    assert!((f_theta(0.0) - 1.0).abs() < TOL, "F(0) must be exactly 1");
    assert!(f_theta(PI / 2.0).abs() < TOL, "F(π/2) must be exactly 0");
    assert!((f_theta(PI) - 2.0).abs() < TOL, "F(π) must be exactly 2");
    // The quarter-circle value is rational: F(π/4) = 6/16 − 5/4 + 1.
    assert!((f_theta(PI / 4.0) - 0.125).abs() < TOL);
    // 3π/4 mirrors into the penalized half: F(3π/4) = 27/8 − 15/4 + 1.
    assert!((f_theta(3.0 * PI / 4.0) - 0.625).abs() < TOL);
}

#[test]
fn f_theta_clamps_outside_the_half_circle() {
    assert_eq!(f_theta(-1.0), f_theta(0.0), "θ < 0 clamps to 0");
    assert_eq!(f_theta(4.0), f_theta(PI), "θ > π clamps to π");
    assert_eq!(f_theta(f64::NEG_INFINITY), f_theta(0.0));
    assert_eq!(f_theta(f64::INFINITY), f_theta(PI));
}

#[test]
fn zero_displacement_is_exactly_zero() {
    // Δ = 0: the sub-optimal point *is* the optimum.
    assert_eq!(robustness_from_points(1.0, 1.0, 1.0, 1.0), 0.0);
    assert_eq!(robustness_from_points(3.5, 250.0, 3.5, 250.0), 0.0);
    // Sub-femto displacements collapse to 0 rather than amplifying
    // rounding noise through the angle computation.
    assert_eq!(robustness_from_points(1.0, 1.0, 1.0 + 1e-16, 1.0), 0.0);
}

#[test]
fn pure_latency_variation_is_theta_half_pi() {
    // Only latency degrades: θ = π/2, F = 0, so R = Δ exactly.
    for d in [0.01, 0.1, 0.5, 2.0] {
        let r = robustness_from_points(2.0, 300.0, 2.0 * (1.0 + d), 300.0);
        assert!((r - d).abs() < 1e-9, "R must equal Δ = {d}, got {r}");
    }
}

#[test]
fn pure_power_variation_above_optimum_is_theta_zero() {
    // Sub-optimal at identical latency but higher power: the
    // displacement points straight up the power axis, θ = 0, F = 1,
    // R = 2Δ.
    let r = robustness_from_points(1.0, 100.0, 1.0, 120.0);
    assert!((r - 2.0 * 0.2).abs() < 1e-9, "R must be 2Δ, got {r}");
}

#[test]
fn pure_power_variation_below_optimum_is_theta_pi() {
    // Sub-optimal at identical latency but *lower* power — reaching the
    // optimum increases power, the paper's most-penalized direction:
    // θ = π, F = 2, R = 3Δ.
    let r = robustness_from_points(1.0, 100.0, 1.0, 80.0);
    assert!((r - 3.0 * 0.2).abs() < 1e-9, "R must be 3Δ, got {r}");
}

#[test]
fn colinear_diagonal_displacement_pins_quarter_angle() {
    // Equal relative degradation in latency and power: the displacement
    // is colinear with the 45° diagonal, θ = π/4, Δ = d√2 and
    // R = Δ·(1 + 1/8).
    for d in [0.05, 0.2, 1.0] {
        let r = robustness_from_points(1.0, 100.0, 1.0 + d, 100.0 * (1.0 + d));
        let delta = d * std::f64::consts::SQRT_2;
        assert!((r - delta * 1.125).abs() < 1e-9, "d={d}: got {r}");
    }
    // The anti-diagonal (latency worse, power better by the same
    // relative amount) lands at θ = 3π/4: R = Δ·1.625.
    let d = 0.2;
    let r = robustness_from_points(1.0, 100.0, 1.0 + d, 100.0 * (1.0 - d));
    let delta = d * std::f64::consts::SQRT_2;
    assert!((r - delta * 1.625).abs() < 1e-9, "anti-diagonal: got {r}");
}

#[test]
fn metric_is_scale_free() {
    // Normalizing by the optimum makes R invariant under independent
    // rescaling of the latency and power axes (seconds→ms, mW→W...).
    let r1 = robustness_from_points(1.0, 100.0, 1.3, 90.0);
    let r2 = robustness_from_points(1000.0, 0.1, 1300.0, 0.09);
    assert!((r1 - r2).abs() < 1e-9, "axis units must not matter");
}

#[test]
#[should_panic(expected = "positive")]
fn zero_optimal_power_rejected() {
    let _ = robustness_from_points(1.0, 0.0, 1.0, 1.0);
}

#[test]
fn flat_history_scores_perfectly_robust() {
    // Every mapping performs identically: the loss landscape has a flat
    // top, Δ = 0 at every quantile, so history, ensemble and aggregate
    // all answer exactly 0.
    let mut h = SearchHistory::new();
    for _ in 0..50 {
        h.push(MappingOutcome {
            loss: 1.0,
            latency_s: 1.0,
            power_mw: 50.0,
        });
    }
    assert_eq!(robustness_of_history(&h, 0.05), Some(0.0));
    assert_eq!(robustness_ensemble(&h, 0.05), Some(0.0));
    assert_eq!(aggregate_robustness(&[&h, &h], 0.05), Some(0.0));
}

#[test]
fn empty_history_yields_none_everywhere() {
    let empty = SearchHistory::new();
    assert_eq!(robustness_of_history(&empty, 0.05), None);
    assert_eq!(robustness_ensemble(&empty, 0.05), None);
    assert_eq!(aggregate_robustness(&[], 0.05), None);
    assert_eq!(aggregate_robustness(&[&empty], 0.05), None);
}

#[test]
fn ensemble_is_mean_of_quantile_ladder() {
    // A strictly improving search: every quantile is well-defined, so
    // the ensemble must equal the arithmetic mean over {0.4α, α, 2α, 4α}.
    let mut h = SearchHistory::new();
    for i in 0..100 {
        let loss = 10.0 - 0.09 * i as f64;
        h.push(MappingOutcome {
            loss,
            latency_s: loss,
            power_mw: 100.0 + loss,
        });
    }
    let alpha = 0.05;
    let ladder = [0.4 * alpha, alpha, 2.0 * alpha, 4.0 * alpha];
    let mean = ladder
        .iter()
        .map(|&a| robustness_of_history(&h, a).expect("quantile defined"))
        .sum::<f64>()
        / ladder.len() as f64;
    let ens = robustness_ensemble(&h, alpha).expect("ensemble defined");
    assert!((ens - mean).abs() < TOL, "ensemble {ens} vs mean {mean}");
}

#[test]
fn aggregate_is_mean_over_feasible_jobs() {
    let mut sharp = SearchHistory::new();
    for i in 0..40 {
        let loss = 10.0 - 0.2 * i as f64;
        sharp.push(MappingOutcome {
            loss,
            latency_s: loss,
            power_mw: 100.0 + loss,
        });
    }
    let mut flat = SearchHistory::new();
    for _ in 0..40 {
        flat.push(MappingOutcome {
            loss: 1.0,
            latency_s: 1.0,
            power_mw: 50.0,
        });
    }
    let a = robustness_ensemble(&sharp, 0.05).unwrap();
    let b = robustness_ensemble(&flat, 0.05).unwrap();
    let agg = aggregate_robustness(&[&sharp, &flat], 0.05).unwrap();
    assert!((agg - (a + b) / 2.0).abs() < TOL);
    // Infeasible (empty) jobs are skipped, not averaged as zeros.
    let empty = SearchHistory::new();
    let agg_skip = aggregate_robustness(&[&sharp, &empty], 0.05).unwrap();
    assert!((agg_skip - a).abs() < TOL);
}

/// The per-quantile routine the ensemble used before it sorted once:
/// one stable sort of the whole history for every quantile asked.
fn reference_quantile_record(h: &SearchHistory, q: f64) -> Option<EvalRecord> {
    let records = h.records();
    if records.is_empty() {
        return None;
    }
    let mut sorted: Vec<usize> = (0..records.len()).collect();
    sorted.sort_by(|&a, &b| {
        records[a]
            .loss
            .partial_cmp(&records[b].loss)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let pos = ((q.clamp(0.0, 1.0)) * (sorted.len() - 1) as f64).round() as usize;
    Some(records[sorted[pos]])
}

/// The ensemble built from [`reference_quantile_record`], one sort per
/// ladder rung.
fn reference_ensemble(h: &SearchHistory, alpha: f64) -> Option<f64> {
    let vals: Vec<f64> = [0.4 * alpha, alpha, 2.0 * alpha, 4.0 * alpha]
        .iter()
        .filter_map(|&a| {
            let opt = h.best()?;
            let sub = reference_quantile_record(h, a.clamp(0.0, 1.0))?;
            if opt.latency_s <= 0.0 || opt.power_mw <= 0.0 {
                return None;
            }
            Some(robustness_from_points(
                opt.latency_s,
                opt.power_mw,
                sub.latency_s.max(opt.latency_s),
                sub.power_mw,
            ))
        })
        .collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

/// Losses drawn from a small pool, so histories are full of ties, and
/// including +∞ (a feasible but unusable candidate).
const LOSS_POOL: [f64; 6] = [1.0, 2.0, 2.0, 3.5, f64::INFINITY, 0.5];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One sort per history reads the same records, and the ensemble
    /// the same bits, as one sort per quantile.
    #[test]
    fn one_sort_matches_the_per_quantile_routine(
        draws in proptest::collection::vec((0usize..LOSS_POOL.len(), 0u32..4), 0..80),
        alpha in 0.0f64..0.3,
    ) {
        let mut h = SearchHistory::new();
        for (i, &(pick, infeasible)) in draws.iter().enumerate() {
            if infeasible == 0 {
                h.push_infeasible();
                continue;
            }
            let loss = LOSS_POOL[pick];
            // Tied losses carry distinct latency/power, so a record taken
            // from the wrong position among ties shows.
            h.push(MappingOutcome {
                loss,
                latency_s: 1.0 + i as f64,
                power_mw: 100.0 + (i % 7) as f64,
            });
        }
        let ladder = [0.0, 0.4 * alpha, alpha, 2.0 * alpha, 4.0 * alpha, 1.0];
        let want: Option<Vec<EvalRecord>> =
            ladder.iter().map(|&q| reference_quantile_record(&h, q)).collect();
        prop_assert_eq!(h.loss_quantile_records(ladder).map(Vec::from), want);
        prop_assert_eq!(
            robustness_ensemble(&h, alpha).map(f64::to_bits),
            reference_ensemble(&h, alpha).map(f64::to_bits)
        );
    }
}
