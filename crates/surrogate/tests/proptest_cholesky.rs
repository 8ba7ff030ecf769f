//! Property tests for the incremental Cholesky machinery behind the
//! batched surrogate path: rank-1 up/downdates against from-scratch
//! refactorization, round-tripping, bitwise row appends,
//! incremental-vs-scratch GP posteriors, and memoized kriging-believer
//! posteriors against fresh predictions.
//!
//! # Tolerances
//!
//! Rank-1 up/downdates use a different (hyperbolic-rotation) operation
//! order than a from-scratch factorization, so agreement is only up to
//! floating-point reassociation: we accept an absolute error of `1e-8`
//! on factor entries of well-conditioned matrices (`G Gᵀ + I` with
//! entries in `[-1, 1]`, n ≤ 8), orders of magnitude tighter than any
//! signal in the surrogate. Row *appends* reuse the scratch operation
//! order exactly and are asserted **bitwise**, which is what the
//! run-level determinism machinery relies on.

use std::cell::Cell;

use proptest::prelude::*;

use unico_surrogate::linalg::Matrix;
use unico_surrogate::{select_batch, AcquisitionKind, GaussianProcess, KernelKind, PosteriorMemo};

const TOL: f64 = 1e-8;

/// A well-conditioned SPD matrix `G Gᵀ + I` built from `n²` entries in
/// `[-1, 1]`.
fn spd_from(entries: &[f64], n: usize) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    let mut acc = 0.0;
                    for k in 0..n {
                        acc += entries[i * n + k] * entries[j * n + k];
                    }
                    if i == j {
                        acc += 1.0;
                    }
                    acc
                })
                .collect()
        })
        .collect();
    Matrix::from_rows(&rows)
}

fn arb_spd(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.0f64..1.0, n * n..n * n + 1).prop_map(move |e| spd_from(&e, n))
}

fn max_factor_diff(a: &Matrix, b: &Matrix) -> f64 {
    assert_eq!(a.rows(), b.rows());
    let mut worst = 0.0f64;
    for i in 0..a.rows() {
        for j in 0..=i {
            worst = worst.max((a[(i, j)] - b[(i, j)]).abs());
        }
    }
    worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rank-1 update of `chol(A)` agrees with `chol(A + v vᵀ)` within
    /// the documented tolerance.
    #[test]
    fn rank1_update_matches_scratch(
        entries in proptest::collection::vec(-1.0f64..1.0, 25..26),
        v in proptest::collection::vec(-1.0f64..1.0, 5..6),
    ) {
        let a = spd_from(&entries, 5);
        let mut l = a.cholesky().expect("SPD by construction");
        l.cholesky_rank1_update(&v);

        let updated = Matrix::from_rows(
            &(0..5)
                .map(|i| (0..5).map(|j| a[(i, j)] + v[i] * v[j]).collect())
                .collect::<Vec<_>>(),
        );
        let scratch = updated.cholesky().expect("update keeps SPD");
        prop_assert!(max_factor_diff(&l, &scratch) < TOL);
    }

    /// Rank-1 downdate of `chol(A + v vᵀ)` recovers `chol(A)` within
    /// tolerance (the downdate target is SPD by construction).
    #[test]
    fn rank1_downdate_matches_scratch(
        entries in proptest::collection::vec(-1.0f64..1.0, 25..26),
        v in proptest::collection::vec(-1.0f64..1.0, 5..6),
    ) {
        let a = spd_from(&entries, 5);
        let updated = Matrix::from_rows(
            &(0..5)
                .map(|i| (0..5).map(|j| a[(i, j)] + v[i] * v[j]).collect())
                .collect::<Vec<_>>(),
        );
        let mut l = updated.cholesky().expect("SPD by construction");
        l.cholesky_rank1_downdate(&v).expect("downdate target is SPD");
        let scratch = a.cholesky().expect("SPD by construction");
        prop_assert!(max_factor_diff(&l, &scratch) < TOL);
    }

    /// Update followed by downdate with the same vector round-trips to
    /// the original factor.
    #[test]
    fn update_then_downdate_round_trips(
        a in arb_spd(6),
        v in proptest::collection::vec(-1.0f64..1.0, 6..7),
    ) {
        let reference = a.cholesky().expect("SPD by construction");
        let mut l = reference.clone();
        l.cholesky_rank1_update(&v);
        l.cholesky_rank1_downdate(&v).expect("round trip stays SPD");
        prop_assert!(max_factor_diff(&l, &reference) < TOL);
    }

    /// Appending rows one at a time reproduces the from-scratch factor
    /// of the full matrix **bitwise** — the invariant the incremental
    /// GP and the golden-trace determinism tests lean on.
    #[test]
    fn append_rows_bitwise_equal_scratch(a in arb_spd(8)) {
        let scratch = a.cholesky().expect("SPD by construction");
        // Start from the leading 3×3 block and append the rest.
        let head = Matrix::from_rows(
            &(0..3)
                .map(|i| (0..3).map(|j| a[(i, j)]).collect())
                .collect::<Vec<_>>(),
        );
        let mut grown = head.cholesky().expect("leading block is SPD");
        for m in 3..8 {
            let col: Vec<f64> = (0..m).map(|j| a[(m, j)]).collect();
            grown
                .cholesky_append_row(&col, a[(m, m)])
                .expect("extension stays SPD");
        }
        prop_assert_eq!(grown.rows(), 8);
        for i in 0..8 {
            for j in 0..=i {
                prop_assert_eq!(
                    grown[(i, j)].to_bits(),
                    scratch[(i, j)].to_bits(),
                    "factor entry ({}, {}) diverged", i, j
                );
            }
        }
    }

    /// An incrementally extended GP produces the same posterior mean and
    /// variance as a from-scratch fit at the same hyperparameters — and
    /// since row appends are bitwise, so is the posterior.
    #[test]
    fn incremental_gp_posterior_matches_scratch(
        seed_xs in proptest::collection::vec(0.0f64..1.0, 4..10),
        extra_xs in proptest::collection::vec(0.0f64..1.0, 1..4),
        queries in proptest::collection::vec(0.0f64..1.0, 1..6),
        ls in 0.05f64..1.5,
        var in 0.2f64..3.0,
    ) {
        let f = |x: f64| (4.0 * x).sin() + 0.3 * x;
        let xs: Vec<Vec<f64>> = seed_xs.iter().map(|&x| vec![x]).collect();
        let ys: Vec<f64> = seed_xs.iter().map(|&x| f(x)).collect();
        let full_xs: Vec<Vec<f64>> = xs
            .iter()
            .cloned()
            .chain(extra_xs.iter().map(|&x| vec![x]))
            .collect();
        let full_ys: Vec<f64> = ys
            .iter()
            .copied()
            .chain(extra_xs.iter().map(|&x| f(x)))
            .collect();

        let mut inc = GaussianProcess::new(KernelKind::Matern52, 1);
        inc.fit_with_hypers(&xs, &ys, ls, var, 1e-4).expect("seed fit");
        inc.fit_incremental(&full_xs, &full_ys).expect("incremental fit");

        let mut scratch = GaussianProcess::new(KernelKind::Matern52, 1);
        scratch
            .fit_with_hypers(&full_xs, &full_ys, ls, var, 1e-4)
            .expect("scratch fit");

        for &q in &queries {
            let (mi, vi) = inc.predict(&[q]);
            let (ms, vs) = scratch.predict(&[q]);
            prop_assert_eq!(mi.to_bits(), ms.to_bits(), "posterior mean at {}", q);
            prop_assert_eq!(vi.to_bits(), vs.to_bits(), "posterior variance at {}", q);
        }
    }
}

/// One kriging-believer scenario: a GP at fixed hyperparameters, a
/// candidate pool, the incumbent, the acquisition and the batch size.
#[derive(Debug)]
struct BelieverCase {
    gp: GaussianProcess,
    pool: Vec<Vec<f64>>,
    best: f64,
    kind: AcquisitionKind,
    batch: usize,
}

fn believer_case() -> impl Strategy<Value = BelieverCase> {
    let point = (0.0f64..1.0, 0.0f64..1.0);
    (
        proptest::collection::vec(point.clone(), 3..9),
        proptest::collection::vec(point, 2..10),
        (0.05f64..0.4, 0.5f64..2.0, -6.0f64..-2.0),
        0u8..2,
        1usize..4,
        1usize..7,
        (0u8..2, 0.0f64..3.0),
    )
        .prop_map(
            |(train, extra, (ls, var, log_noise), stress, dups, batch, (acq, beta))| {
                let xs: Vec<Vec<f64>> = train.iter().map(|&(a, b)| vec![a, b]).collect();
                let ys: Vec<f64> = xs.iter().map(|x| (4.0 * x[0]).sin() + x[1]).collect();
                let y_min = ys.iter().copied().fold(f64::INFINITY, f64::min);
                let extra = extra.iter().map(|&(a, b)| vec![a, b]);
                let stress = stress == 0;
                // Stress cases lead the pool with exact copies of training
                // points at a noise below one ulp of the kernel diagonal, so
                // row appends meet rounding-level pivots and often fail,
                // forcing the jitter-ladder refactor mid-batch. An incumbent
                // far below every posterior makes EI underflow to 0
                // everywhere, so picks go in pool order, straight into them.
                let (noise, pool, best) = if stress {
                    let copies = (0..dups).map(|i| xs[i % xs.len()].clone());
                    (1e-18, copies.chain(extra).collect(), y_min - 1e6)
                } else {
                    (10f64.powf(log_noise), extra.collect(), y_min)
                };
                let kind = if stress || acq == 0 {
                    AcquisitionKind::ExpectedImprovement
                } else {
                    AcquisitionKind::LowerConfidenceBound { beta }
                };
                let mut gp = GaussianProcess::new(KernelKind::Matern52, 2);
                gp.fit_with_hypers(&xs, &ys, ls, var, noise)
                    .expect("the jitter ladder factorizes any finite kernel");
                BelieverCase {
                    gp,
                    pool,
                    best,
                    kind,
                    batch,
                }
            },
        )
}

fn score(kind: AcquisitionKind, mean: f64, var: f64, best: f64) -> f64 {
    match kind {
        AcquisitionKind::ExpectedImprovement => {
            unico_surrogate::expected_improvement(mean, var, best)
        }
        AcquisitionKind::LowerConfidenceBound { beta } => unico_surrogate::ucb(mean, var, beta),
    }
}

fn assert_memo_matches(gp: &GaussianProcess, x: &[f64], memo: &mut PosteriorMemo) {
    let (m, v) = gp.predict_memoized(x, memo);
    let (fm, fv) = gp.predict(x);
    assert_eq!(m.to_bits(), fm.to_bits(), "memoized mean at {x:?}");
    assert_eq!(v.to_bits(), fv.to_bits(), "memoized variance at {x:?}");
}

/// Runs the kriging believer the way `select_batch` did before it
/// memoized posteriors — a fresh `predict` per candidate per pick — and
/// checks at every pick that each candidate's memo reproduces those
/// bits. Returns the picks and whether the jitter-ladder fallback ran
/// (a refactor that raised the noise level).
fn reference_batch(case: &BelieverCase) -> (Vec<usize>, bool) {
    let mut gp = case.gp.clone();
    let mut memos = vec![PosteriorMemo::default(); case.pool.len()];
    let mut chosen: Vec<usize> = Vec::new();
    for _ in 0..case.batch.min(case.pool.len()) {
        let mut best_pick = None;
        let mut best_score = f64::NEG_INFINITY;
        for (i, x) in case.pool.iter().enumerate() {
            if chosen.contains(&i) {
                continue;
            }
            assert_memo_matches(&gp, x, &mut memos[i]);
            let (mean, var) = gp.predict(x);
            let s = score(case.kind, mean, var, case.best);
            if s > best_score {
                best_score = s;
                best_pick = Some(i);
            }
        }
        let idx = best_pick.expect("pool larger than chosen set");
        chosen.push(idx);
        let (mean, _) = gp.predict(&case.pool[idx]);
        let _ = gp.hallucinate(case.pool[idx].clone(), mean);
    }
    // Picked candidates' memos lag several appended rows by now.
    for (x, memo) in case.pool.iter().zip(&mut memos) {
        assert_memo_matches(&gp, x, memo);
    }
    (chosen, gp.noise() != case.gp.noise())
}

/// Memoized posteriors are bitwise identical to fresh predictions at
/// every kriging-believer pick, and `select_batch` picks exactly what
/// the per-candidate `predict` loop picks — including batches whose
/// hallucinations fall back to a full jitter-ladder refactor (a new
/// factor epoch), which at least one generated case must exercise.
#[test]
fn memoized_believer_matches_fresh_predictions() {
    let fallbacks = Cell::new(0u32);
    proptest::run_property(
        "memoized_believer_matches_fresh_predictions",
        &ProptestConfig::with_cases(96),
        &believer_case(),
        |case| {
            let (want, fell_back) = reference_batch(&case);
            let got = select_batch(
                case.gp.clone(),
                &case.pool,
                case.best,
                case.kind,
                case.batch,
            );
            prop_assert_eq!(got, want);
            fallbacks.set(fallbacks.get() + u32::from(fell_back));
        },
    );
    assert!(
        fallbacks.get() > 0,
        "no generated case took the jitter-ladder fallback"
    );
}
