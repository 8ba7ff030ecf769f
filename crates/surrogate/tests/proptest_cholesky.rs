//! Property tests for the Cholesky machinery behind the surrogate: the
//! column-oriented factorization and forward solve against the textbook
//! row loops they replaced, bitwise row appends, incremental-vs-scratch
//! GP posteriors, and the kriging believer's pool posterior against
//! fresh predictions.
//!
//! Every kernel keeps the textbook per-element operation order, so every
//! comparison here is **bitwise** (no tolerance), which is what the
//! run-level determinism machinery relies on.

use std::cell::Cell;

use proptest::prelude::*;

use unico_surrogate::linalg::{LinalgError, Matrix};
use unico_surrogate::{
    select_batch, AcquisitionKind, GaussianProcess, Kernel, KernelKind, PoolPosterior,
};

/// The row-by-row Cholesky loop `Matrix::cholesky` used to run, kept as
/// the bitwise oracle: entry `(i, j)` starts from `a[i][j]`, subtracts
/// `l[i][k]·l[j][k]` for `k = 0, 1, …, j−1`, then takes the square root
/// (diagonal) or divides by `l[j][j]`; the first non-positive or
/// non-finite pivot fails.
fn reference_cholesky(a: &Matrix) -> Result<Matrix, LinalgError> {
    assert_eq!(a.rows(), a.cols(), "cholesky needs a square matrix");
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite { pivot: i });
                }
                l[(i, i)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// The row-by-row forward substitution `Matrix::solve_lower` used to
/// run: `x[i] = (b[i] − Σ_{k<i} l[i][k]·x[k]) / l[i][i]`, `k` ascending.
fn reference_solve_lower(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let mut x: Vec<f64> = Vec::with_capacity(b.len());
    for (i, &bi) in b.iter().enumerate() {
        let mut sum = bi;
        for (k, xk) in x.iter().enumerate() {
            sum -= l[(i, k)] * xk;
        }
        x.push(sum / l[(i, i)]);
    }
    x
}

fn bits(m: &Matrix) -> Vec<u64> {
    (0..m.rows())
        .flat_map(|i| (0..m.cols()).map(move |j| (i, j)))
        .map(|ij| m[ij].to_bits())
        .collect()
}

/// `Matrix::cholesky` equals the reference bit for bit, including the
/// pivot of a failure. Returns the reference result.
fn assert_cholesky_matches(a: &Matrix) -> Result<Matrix, LinalgError> {
    let want = reference_cholesky(a);
    match (a.cholesky(), &want) {
        (Ok(got), Ok(w)) => assert_eq!(bits(&got), bits(w), "factor bits diverged"),
        (got, w) => assert_eq!(got.err(), w.clone().err(), "factorization outcome diverged"),
    }
    want
}

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

/// `n` in `1..=40` and an SPD matrix of that size, plus a right-hand
/// side and a uniform draw in `[0, 1)` for picking entries and shifts.
fn arb_sized_spd() -> impl Strategy<Value = (Matrix, Vec<f64>, f64)> {
    (
        1usize..=40,
        proptest::collection::vec(-1.0f64..1.0, 1600..1601),
        proptest::collection::vec(-10.0f64..10.0, 40..41),
        0.0f64..1.0,
    )
        .prop_map(|(n, e, b, u)| (spd_from(&e[..n * n], n), b[..n].to_vec(), u))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The column-oriented factorization and forward solve reproduce
    /// the textbook row loops bitwise on SPD matrices of every size up
    /// to 40, and a NaN anywhere in the lower triangle fails at the same
    /// pivot.
    #[test]
    fn cholesky_and_solve_match_row_loop_reference(case in arb_sized_spd()) {
        let (a, b, u) = case;
        let l = assert_cholesky_matches(&a).expect("SPD by construction");
        let got: Vec<u64> = l.solve_lower(&b).iter().map(|x| x.to_bits()).collect();
        let want: Vec<u64> = reference_solve_lower(&l, &b).iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(got, want);

        let n = a.rows();
        let i = ((u * n as f64) as usize).min(n - 1);
        let j = ((u * 7919.0) as usize) % (i + 1);
        let mut poisoned = a.clone();
        poisoned[(i, j)] = f64::NAN;
        prop_assert!(assert_cholesky_matches(&poisoned).is_err());
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

/// Indefinite matrices fail at the reference's pivot: an SPD matrix
/// `G Gᵀ + I` shifted down by up to `n + 1` on the diagonal loses
/// positive-definiteness at a size-dependent row. At least one generated
/// case must fail past the first pivot.
#[test]
fn indefinite_matrices_fail_at_reference_pivot() {
    let late_failures = Cell::new(0u32);
    proptest::run_property(
        "indefinite_matrices_fail_at_reference_pivot",
        &ProptestConfig::with_cases(96),
        &arb_sized_spd(),
        |(a, _, u)| {
            let n = a.rows();
            let mut shifted = a.clone();
            for i in 0..n {
                shifted[(i, i)] -= u * (n + 1) as f64;
            }
            if let Err(LinalgError::NotPositiveDefinite { pivot }) =
                assert_cholesky_matches(&shifted)
            {
                late_failures.set(late_failures.get() + u32::from(pivot > 0));
            }
        },
    );
    assert!(late_failures.get() > 0, "no case failed past pivot 0");
}

/// Matérn-5/2 kernel matrices at the smallest grid length scale (0.05)
/// and noise `1e-6` over points on a coarse lattice, so duplicates make
/// them near-singular — the shape that drives the jitter ladder —
/// factorize (or fail) exactly like the reference.
#[test]
fn near_singular_kernel_matrices_match_reference() {
    proptest::run_property(
        "near_singular_kernel_matrices_match_reference",
        &ProptestConfig::with_cases(64),
        &proptest::collection::vec((0u8..6, 0u8..6), 1..41),
        |cells| {
            let kernel = Kernel::new(KernelKind::Matern52, 0.05, 1.0);
            let xs: Vec<Vec<f64>> = cells
                .iter()
                .map(|&(a, b)| vec![f64::from(a) / 100.0, f64::from(b) / 100.0])
                .collect();
            let rows: Vec<Vec<f64>> = xs
                .iter()
                .map(|xi| {
                    xs.iter()
                        .map(|xj| kernel.eval(xi, xj) + if xi == xj { 1e-6 } else { 0.0 })
                        .collect()
                })
                .collect();
            let mut a = Matrix::from_rows(&rows);
            for (i, xi) in xs.iter().enumerate() {
                a[(i, i)] = kernel.eval(xi, xi) + 1e-6;
            }
            let _ = assert_cholesky_matches(&a);
        },
    );
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

fn assert_posterior_matches(gp: &GaussianProcess, x: &[f64], mean: f64, var: f64) {
    let (fm, fv) = gp.predict(x);
    assert_eq!(mean.to_bits(), fm.to_bits(), "pool posterior mean at {x:?}");
    assert_eq!(
        var.to_bits(),
        fv.to_bits(),
        "pool posterior variance at {x:?}"
    );
}

/// Runs the kriging believer the way `select_batch` did before it
/// carried posteriors across picks — a fresh `predict` per candidate per
/// pick — and checks at every pick that the pool posterior reproduces
/// those bits for every unchosen candidate. Returns the picks and
/// whether the jitter-ladder fallback ran (a refactor that raised the
/// noise level).
fn reference_batch(case: &BelieverCase) -> (Vec<usize>, bool) {
    let mut gp = case.gp.clone();
    let mut posterior = PoolPosterior::new(&case.pool, 0);
    let mut chosen: Vec<usize> = Vec::new();
    for _ in 0..case.batch.min(case.pool.len()) {
        let mut best_pick = None;
        let mut best_score = f64::NEG_INFINITY;
        let (means, vars) = posterior.update(&gp);
        for (i, x) in case.pool.iter().enumerate() {
            if chosen.contains(&i) {
                continue;
            }
            assert_posterior_matches(&gp, x, means[i], vars[i]);
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
    // After the last pick, every candidate, picked ones included.
    let (means, vars) = posterior.update(&gp);
    for (i, x) in case.pool.iter().enumerate() {
        assert_posterior_matches(&gp, x, means[i], vars[i]);
    }
    (chosen, gp.noise() != case.gp.noise())
}

/// The pool posterior is bitwise identical to fresh predictions at
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
