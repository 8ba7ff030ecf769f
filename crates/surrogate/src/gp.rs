//! Gaussian-process regression with marginal-likelihood hyperparameter
//! fitting.

use std::fmt;

use rand::rngs::StdRng;
use rand::Rng;

use crate::kernel::{Kernel, KernelKind};
use crate::linalg::{LinalgError, Matrix};

/// Errors from Gaussian-process fitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpError {
    /// No training data was supplied.
    EmptyTrainingSet,
    /// Input feature vectors had inconsistent dimension.
    DimensionMismatch {
        /// Expected feature dimension.
        expected: usize,
        /// Offending dimension.
        got: usize,
    },
    /// The kernel matrix could not be factorized even at maximum jitter.
    Factorization(LinalgError),
}

impl fmt::Display for GpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpError::EmptyTrainingSet => write!(f, "empty training set"),
            GpError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "feature dimension mismatch: expected {expected}, got {got}"
                )
            }
            GpError::Factorization(e) => write!(f, "kernel factorization failed: {e}"),
        }
    }
}

impl std::error::Error for GpError {}

/// A Gaussian-process regressor over `[0, 1]^d` features.
///
/// Targets are standardized internally (zero mean, unit variance), and
/// kernel hyperparameters (length scale, signal variance, noise) are
/// selected by random multi-start search maximizing the log marginal
/// likelihood — cheap, dependency-free, and entirely adequate for the
/// few-hundred-point training sets a co-optimization run produces.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kind: KernelKind,
    dim: usize,
    kernel: Kernel,
    noise: f64,
    x: Vec<Vec<f64>>,
    /// Standardized targets (including hallucinated ones).
    y_norm: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    chol: Option<Matrix>,
    alpha: Vec<f64>,
    /// Factor epoch: bumped whenever the factor is rebuilt from scratch
    /// (never by a row append), so a [`PoolPosterior`] can tell whether
    /// it still matches the factor's leading rows.
    epoch: u64,
}

/// Whether a candidate log marginal likelihood `lml` replaces the
/// incumbent `best` in the hyperparameter search: strictly greater, so
/// the first of equal maxima wins, and never a non-finite value — a NaN
/// taken first would win every later `>` comparison by default.
fn improves_lml(lml: f64, best: Option<f64>) -> bool {
    lml.is_finite() && best.is_none_or(|b| lml > b)
}

/// `alpha = (L Lᵀ)⁻¹ y` into a reused buffer.
fn cholesky_solve(l: &Matrix, y: &[f64], alpha: &mut Vec<f64>) {
    alpha.clear();
    l.solve_lower_extend(y, alpha);
    l.solve_lower_transpose_in_place(alpha);
}

impl GaussianProcess {
    /// Creates an unfitted GP for `dim`-dimensional features.
    pub fn new(kind: KernelKind, dim: usize) -> Self {
        GaussianProcess {
            kind,
            dim,
            kernel: Kernel::new(kind, 0.3, 1.0),
            noise: 1e-4,
            x: Vec::new(),
            y_norm: Vec::new(),
            y_mean: 0.0,
            y_std: 1.0,
            chol: None,
            alpha: Vec::new(),
            epoch: 0,
        }
    }

    /// Number of training points currently absorbed.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the GP has no training data.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Kernel currently in use (hyperparameters readable through its
    /// accessors) — what a checkpoint needs to reproduce this fit.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Observation-noise/jitter level of the current factorization.
    pub fn noise(&self) -> f64 {
        self.noise
    }

    fn standardize(&mut self, ys: &[f64]) {
        let n = ys.len() as f64;
        self.y_mean = ys.iter().sum::<f64>() / n;
        let var = ys.iter().map(|y| (y - self.y_mean).powi(2)).sum::<f64>() / n;
        self.y_std = var.sqrt().max(1e-12);
        self.y_norm = ys.iter().map(|y| (y - self.y_mean) / self.y_std).collect();
    }

    /// Full factorization of the current `(x, kernel, noise)` state with
    /// jitter escalation, recomputing `alpha` against `y_norm`. Starts a
    /// new factor epoch; the factor, `alpha` and noise change only on
    /// success.
    fn refactor(&mut self) -> Result<(), GpError> {
        self.epoch += 1;
        let n = self.x.len();
        let mut k = Matrix::zeros(n, n);
        self.kernel_lower(&self.kernel, &mut k);
        let mut jitter = self.noise;
        for _ in 0..8 {
            self.kernel_diagonal(&self.kernel, jitter, &mut k);
            match k.cholesky() {
                Ok(l) => {
                    let mut alpha = Vec::with_capacity(n);
                    cholesky_solve(&l, &self.y_norm, &mut alpha);
                    self.chol = Some(l);
                    self.alpha = alpha;
                    self.noise = jitter;
                    return Ok(());
                }
                Err(_) => jitter = (jitter * 10.0).max(1e-8),
            }
        }
        Err(GpError::Factorization(LinalgError::NotPositiveDefinite {
            pivot: 0,
        }))
    }

    fn validate(&self, xs: &[Vec<f64>], ys: &[f64]) -> Result<(), GpError> {
        if xs.is_empty() {
            return Err(GpError::EmptyTrainingSet);
        }
        if let Some(bad) = xs.iter().find(|x| x.len() != self.dim) {
            return Err(GpError::DimensionMismatch {
                expected: self.dim,
                got: bad.len(),
            });
        }
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        Ok(())
    }

    /// Writes `k(x_i, x_j)` over the training points into the strict
    /// lower triangle of `k`, the only off-diagonal part a factorization
    /// reads.
    fn kernel_lower(&self, kernel: &Kernel, k: &mut Matrix) {
        for (j, xj) in self.x.iter().enumerate() {
            for (i, xi) in self.x.iter().enumerate().skip(j + 1) {
                k[(i, j)] = kernel.eval(xi, xj);
            }
        }
    }

    /// Sets the diagonal of `k` to `k(x_i, x_i) + noise`.
    fn kernel_diagonal(&self, kernel: &Kernel, noise: f64, k: &mut Matrix) {
        for (i, xi) in self.x.iter().enumerate() {
            k[(i, i)] = kernel.eval(xi, xi) + noise;
        }
    }

    /// Log marginal likelihood of `y` under the kernel matrix `k`,
    /// factorizing into the reused buffers `l` and `alpha`; `None` when
    /// `k` is not positive definite.
    fn log_marginal(k: &Matrix, y: &[f64], l: &mut Matrix, alpha: &mut Vec<f64>) -> Option<f64> {
        k.cholesky_into(l).ok()?;
        cholesky_solve(l, y, alpha);
        let fit: f64 = y.iter().zip(alpha.iter()).map(|(a, b)| a * b).sum();
        let n = y.len() as f64;
        Some(-0.5 * fit - 0.5 * l.cholesky_log_det() - 0.5 * n * (2.0 * std::f64::consts::PI).ln())
    }

    /// Fits the GP to `(xs, ys)`, selecting hyperparameters by random
    /// multi-start maximum marginal likelihood.
    ///
    /// # Errors
    ///
    /// Returns an error when `xs` is empty, dimensions mismatch, or no
    /// hyperparameter setting yields a factorizable kernel matrix.
    pub fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64], rng: &mut StdRng) -> Result<(), GpError> {
        self.validate(xs, ys)?;
        self.x = xs.to_vec();
        self.standardize(ys);

        // Multi-start hyperparameter search: a deterministic coarse grid
        // plus random refinement.
        let mut candidates: Vec<(f64, f64, f64)> = Vec::new();
        for &ls in &[0.05, 0.1, 0.2, 0.4, 0.8, 1.6] {
            for &noise in &[1e-6, 1e-4, 1e-2] {
                candidates.push((ls, 1.0, noise));
            }
        }
        for _ in 0..24 {
            let ls = 10f64.powf(rng.gen_range(-1.6..0.4));
            let var = 10f64.powf(rng.gen_range(-0.5..0.7));
            let noise = 10f64.powf(rng.gen_range(-6.0..-1.0));
            candidates.push((ls, var, noise));
        }
        // Consecutive candidates with the same `(ls, var)` — each grid
        // length scale across its noise levels — share one off-diagonal
        // kernel build; only the diagonal is rewritten per noise.
        let n = self.x.len();
        let mut k = Matrix::zeros(n, n);
        let mut l = Matrix::zeros(n, n);
        let mut alpha = Vec::with_capacity(n);
        let mut built: Option<(u64, u64)> = None;
        let mut best: Option<(f64, Kernel, f64)> = None;
        for (ls, var, noise) in candidates {
            let kernel = Kernel::new(self.kind, ls, var);
            if built != Some((ls.to_bits(), var.to_bits())) {
                self.kernel_lower(&kernel, &mut k);
                built = Some((ls.to_bits(), var.to_bits()));
            }
            self.kernel_diagonal(&kernel, noise, &mut k);
            let Some(lml) = Self::log_marginal(&k, &self.y_norm, &mut l, &mut alpha) else {
                continue;
            };
            if improves_lml(lml, best.as_ref().map(|b| b.0)) {
                best = Some((lml, kernel, noise));
            }
        }
        let (_, kernel, noise) =
            best.ok_or(GpError::Factorization(LinalgError::NotPositiveDefinite {
                pivot: 0,
            }))?;
        self.kernel = kernel;
        self.noise = noise;

        // Final factorization with jitter escalation for numerical safety.
        self.refactor()
    }

    /// Fits the GP to `(xs, ys)` with **fixed** hyperparameters,
    /// consuming no randomness: no marginal-likelihood search runs, only
    /// target standardization and one factorization through the same
    /// jitter-escalation ladder as [`GaussianProcess::fit`].
    ///
    /// Together with [`GaussianProcess::fit_incremental`] this makes
    /// surrogate updates reproducible across checkpoint/resume: a
    /// resumed run rebuilds the factor from the stored hyperparameters
    /// and lands bit-identical to the incrementally grown one (row
    /// appends use exactly the scratch factorization's operation order).
    ///
    /// # Errors
    ///
    /// Returns an error when `xs` is empty, dimensions mismatch, or the
    /// kernel matrix cannot be factorized even at maximum jitter.
    pub fn fit_with_hypers(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[f64],
        length_scale: f64,
        variance: f64,
        noise: f64,
    ) -> Result<(), GpError> {
        self.validate(xs, ys)?;
        self.x = xs.to_vec();
        self.standardize(ys);
        self.kernel = Kernel::new(self.kind, length_scale, variance);
        self.noise = noise;
        self.refactor()
    }

    /// Extends an already-fitted GP with additional trailing samples
    /// without re-selecting hyperparameters and without consuming
    /// randomness. The Cholesky factor grows by one appended row per new
    /// point (O(n²) instead of O(n³) per sample); targets are
    /// re-standardized and `alpha` recomputed against the full vector
    /// (they are cheap and depend on the scalarization weights, which
    /// change every call).
    ///
    /// `xs[..self.len()]` must be the points already absorbed, in order.
    /// If a row append hits a non-positive pivot, the factor is rebuilt
    /// from scratch through the jitter ladder — exactly what a
    /// from-scratch [`GaussianProcess::fit_with_hypers`] at the same
    /// hyperparameters would do, so both paths stay bit-identical.
    ///
    /// # Errors
    ///
    /// Returns an error when `xs` is empty, dimensions mismatch, or the
    /// extended kernel matrix cannot be factorized even at maximum
    /// jitter.
    pub fn fit_incremental(&mut self, xs: &[Vec<f64>], ys: &[f64]) -> Result<(), GpError> {
        self.validate(xs, ys)?;
        let n0 = self.x.len();
        assert!(
            xs.len() >= n0,
            "fit_incremental cannot shrink the training set"
        );
        let (ls, var) = (self.kernel.length_scale(), self.kernel.variance());

        let mut factor = self.chol.take();
        let mut appended = factor.as_ref().is_some_and(|l| l.rows() == n0);
        if appended {
            let l = factor.as_mut().expect("factor present on append path");
            for x in &xs[n0..] {
                let kx: Vec<f64> = self.x.iter().map(|xi| self.kernel.eval(x, xi)).collect();
                let d = self.kernel.eval(x, x) + self.noise;
                if l.cholesky_append_row(&kx, d).is_err() {
                    appended = false;
                    break;
                }
                self.x.push(x.clone());
            }
        }
        if appended {
            self.standardize(ys);
            let l = factor.as_ref().expect("factor present on append path");
            cholesky_solve(l, &self.y_norm, &mut self.alpha);
            self.chol = factor;
            Ok(())
        } else {
            // Non-positive pivot (or no factor yet): a from-scratch
            // ladder at the stored hyperparameters, as a resumed run
            // would perform.
            self.fit_with_hypers(xs, ys, ls, var, self.noise)
        }
    }

    /// Posterior mean and variance at `x` (in original target units).
    ///
    /// For an unfitted GP returns the prior `(0, kernel variance)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        assert_eq!(x.len(), self.dim, "prediction dimension mismatch");
        let Some(l) = &self.chol else {
            return self.prior();
        };
        let row: Vec<f64> = self.x.iter().map(|xi| self.kernel.eval(xi, x)).collect();
        let v = l.solve_lower(&row);
        let mean_norm: f64 = row.iter().zip(&self.alpha).map(|(a, b)| a * b).sum();
        let var_norm =
            (self.kernel.eval(x, x) + self.noise - v.iter().map(|u| u * u).sum::<f64>()).max(0.0);
        (
            mean_norm * self.y_std + self.y_mean,
            var_norm * self.y_std * self.y_std,
        )
    }

    /// The prior `(mean, variance)` an unfitted GP predicts everywhere.
    fn prior(&self) -> (f64, f64) {
        (
            self.y_mean,
            self.kernel.variance() * self.y_std * self.y_std,
        )
    }

    /// Adds a hallucinated observation (kriging believer) without
    /// refitting hyperparameters. Used for batch acquisition.
    ///
    /// Grows the existing Cholesky factor by one appended row (O(n²));
    /// the append uses the scratch factorization's exact operation
    /// order, so the grown factor is bit-identical to the full
    /// refactorization this method used to perform. Falls back to the
    /// full jitter ladder when there is no factor yet or the extension
    /// is not positive definite.
    ///
    /// # Errors
    ///
    /// Returns an error if the augmented kernel matrix cannot be
    /// factorized. The GP is then exactly as before the call: training
    /// set, targets, factor, `alpha`, noise and epoch are unchanged.
    pub fn hallucinate(&mut self, x: Vec<f64>, y: f64) -> Result<(), GpError> {
        if x.len() != self.dim {
            return Err(GpError::DimensionMismatch {
                expected: self.dim,
                got: x.len(),
            });
        }
        let appended = match self.chol.as_mut() {
            Some(l) if l.rows() == self.x.len() => {
                let kx: Vec<f64> = self.x.iter().map(|xi| self.kernel.eval(&x, xi)).collect();
                let d = self.kernel.eval(&x, &x) + self.noise;
                l.cholesky_append_row(&kx, d).is_ok()
            }
            _ => false,
        };
        self.x.push(x);
        self.y_norm.push((y - self.y_mean) / self.y_std);
        if appended {
            let l = self.chol.as_ref().expect("factor present on append path");
            cholesky_solve(l, &self.y_norm, &mut self.alpha);
            return Ok(());
        }
        let epoch = self.epoch;
        if self.refactor().is_err() {
            // The failed ladder committed nothing; drop the point too.
            self.x.pop();
            self.y_norm.pop();
            self.epoch = epoch;
            return Err(GpError::Factorization(LinalgError::NotPositiveDefinite {
                pivot: self.x.len(),
            }));
        }
        Ok(())
    }
}

/// The posterior of a fixed candidate pool under one GP and the
/// row-appended GPs it grows into, in structure-of-arrays layout.
///
/// Kriging-believer batch selection scores every pool candidate once per
/// pick while each pick appends one hallucinated row to the factor.
/// Appends leave the earlier rows of `L` untouched, so the kernel rows
/// `K[k][p] = k(x_k, pool[p])` and forward solves `V = L⁻¹ K` of the
/// absorbed training points carry over: a new training row costs one
/// kernel evaluation per candidate and one forward-solve row,
/// `V[i][p] = (K[i][p] − Σ_k L[i][k]·V[k][p]) / L[i][i]` with `k`
/// ascending, run across all candidates at once. Each candidate keeps a
/// running `Σ_k V[k][p]²`, and the means `Σ_k K[k][p]·alpha[k]` are
/// accumulated across candidates in `k` order. Every sum is the
/// sequential fold [`GaussianProcess::predict`] performs, so each
/// candidate's `(mean, variance)` is bitwise identical to `predict`.
///
/// When the factor was rebuilt since the last update (a new epoch: a
/// refit, whose kernel or points may differ, or a jitter-ladder
/// fallback), the posterior starts over.
#[derive(Debug)]
pub struct PoolPosterior<'p> {
    pool: &'p [Vec<f64>],
    /// Factor epoch the buffers belong to; `None` before the first
    /// update of a fitted GP.
    epoch: Option<u64>,
    /// Training rows absorbed into `k` and `v`.
    rows: usize,
    /// `K[k][p]` at `k * pool.len() + p`.
    k: Vec<f64>,
    /// `V[k][p]`, same layout.
    v: Vec<f64>,
    /// Running `Σ_k V[k][p]²`, folded from `-0.0` like `Iterator::sum`.
    v_sq: Vec<f64>,
    /// `k(pool[p], pool[p]) + noise` under the epoch's kernel and noise.
    prior: Vec<f64>,
    mean: Vec<f64>,
    var: Vec<f64>,
}

impl<'p> PoolPosterior<'p> {
    /// An empty posterior over `pool`, with room for `rows` training
    /// points before its `rows × pool` buffers reallocate.
    pub fn new(pool: &'p [Vec<f64>], rows: usize) -> Self {
        let np = pool.len();
        PoolPosterior {
            pool,
            epoch: None,
            rows: 0,
            k: Vec::with_capacity(rows * np),
            v: Vec::with_capacity(rows * np),
            v_sq: Vec::with_capacity(np),
            prior: Vec::with_capacity(np),
            mean: Vec::with_capacity(np),
            var: Vec::with_capacity(np),
        }
    }

    /// Brings the posterior up to date with `gp` and returns every pool
    /// candidate's posterior means and variances (in original target
    /// units), each bitwise equal to `gp.predict(&pool[p])`.
    ///
    /// # Panics
    ///
    /// Panics if a candidate's length differs from `gp.dim()`.
    pub fn update(&mut self, gp: &GaussianProcess) -> (&[f64], &[f64]) {
        let np = self.pool.len();
        assert!(
            self.pool.iter().all(|x| x.len() == gp.dim),
            "prediction dimension mismatch"
        );
        self.mean.clear();
        self.var.clear();
        let Some(l) = &gp.chol else {
            let (mean, var) = gp.prior();
            self.mean.resize(np, mean);
            self.var.resize(np, var);
            return (&self.mean, &self.var);
        };
        if np == 0 {
            return (&self.mean, &self.var);
        }
        if self.epoch != Some(gp.epoch) {
            self.epoch = Some(gp.epoch);
            self.rows = 0;
            self.k.clear();
            self.v.clear();
            self.v_sq.clear();
            self.v_sq.resize(np, -0.0);
            self.prior.clear();
            self.prior
                .extend(self.pool.iter().map(|x| gp.kernel.eval(x, x) + gp.noise));
        }
        for (i, xi) in gp.x.iter().enumerate().skip(self.rows) {
            self.k
                .extend(self.pool.iter().map(|x| gp.kernel.eval(xi, x)));
            self.v.extend_from_slice(&self.k[i * np..]);
            let (done, row) = self.v.split_at_mut(i * np);
            for (t, vt) in done.chunks_exact(np).enumerate() {
                let lit = l[(i, t)];
                for (a, b) in row.iter_mut().zip(vt) {
                    *a -= lit * b;
                }
            }
            let lii = l[(i, i)];
            for (a, s) in row.iter_mut().zip(&mut self.v_sq) {
                *a /= lii;
                *s += *a * *a;
            }
        }
        self.rows = gp.x.len();
        self.mean.resize(np, -0.0);
        for (kt, a) in self.k.chunks_exact(np).zip(&gp.alpha) {
            for (m, kv) in self.mean.iter_mut().zip(kt) {
                *m += kv * a;
            }
        }
        for (m, (prior, s)) in self.mean.iter_mut().zip(self.prior.iter().zip(&self.v_sq)) {
            *m = *m * gp.y_std + gp.y_mean;
            let var_norm = (prior - s).max(0.0);
            self.var.push(var_norm * gp.y_std * gp.y_std);
        }
        (&self.mean, &self.var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn interpolates_training_points() {
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (6.0 * x[0]).sin()).collect();
        let mut gp = GaussianProcess::new(KernelKind::Matern52, 1);
        gp.fit(&xs, &ys, &mut rng()).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let (m, v) = gp.predict(x);
            assert!((m - y).abs() < 0.15, "mean {m} vs {y}");
            assert!(v >= 0.0);
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let xs = vec![vec![0.4], vec![0.5], vec![0.6]];
        let ys = vec![1.0, 1.1, 0.9];
        let mut gp = GaussianProcess::new(KernelKind::SquaredExponential, 1);
        gp.fit(&xs, &ys, &mut rng()).unwrap();
        let (_, v_near) = gp.predict(&[0.5]);
        let (_, v_far) = gp.predict(&[0.0]);
        assert!(v_far > v_near);
    }

    #[test]
    fn empty_fit_errors() {
        let mut gp = GaussianProcess::new(KernelKind::Matern52, 2);
        assert_eq!(gp.fit(&[], &[], &mut rng()), Err(GpError::EmptyTrainingSet));
    }

    #[test]
    fn dimension_mismatch_errors() {
        let mut gp = GaussianProcess::new(KernelKind::Matern52, 2);
        let err = gp.fit(&[vec![0.1]], &[1.0], &mut rng()).unwrap_err();
        assert!(matches!(
            err,
            GpError::DimensionMismatch {
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn prior_prediction_before_fit() {
        let gp = GaussianProcess::new(KernelKind::Matern52, 3);
        let (m, v) = gp.predict(&[0.1, 0.2, 0.3]);
        assert_eq!(m, 0.0);
        assert!(v > 0.0);
        assert!(gp.is_empty());
    }

    #[test]
    fn constant_targets_do_not_blow_up() {
        let xs = vec![vec![0.1], vec![0.5], vec![0.9]];
        let ys = vec![2.0, 2.0, 2.0];
        let mut gp = GaussianProcess::new(KernelKind::Matern52, 1);
        gp.fit(&xs, &ys, &mut rng()).unwrap();
        let (m, v) = gp.predict(&[0.3]);
        assert!((m - 2.0).abs() < 1e-6);
        assert!(v.is_finite());
    }

    #[test]
    fn duplicate_points_survive_via_jitter() {
        let xs = vec![vec![0.5], vec![0.5], vec![0.5], vec![0.2]];
        let ys = vec![1.0, 1.0, 1.0, 0.0];
        let mut gp = GaussianProcess::new(KernelKind::SquaredExponential, 1);
        gp.fit(&xs, &ys, &mut rng()).unwrap();
        let (m, _) = gp.predict(&[0.5]);
        assert!((m - 1.0).abs() < 0.3);
    }

    #[test]
    fn hallucination_shifts_posterior() {
        let xs = vec![vec![0.2], vec![0.8]];
        let ys = vec![1.0, 1.0];
        let mut gp = GaussianProcess::new(KernelKind::Matern52, 1);
        gp.fit(&xs, &ys, &mut rng()).unwrap();
        let (_, v_before) = gp.predict(&[0.5]);
        gp.hallucinate(vec![0.5], 1.0).unwrap();
        let (_, v_after) = gp.predict(&[0.5]);
        assert!(v_after < v_before, "hallucination should reduce variance");
    }

    #[test]
    fn failed_hallucination_leaves_gp_unchanged() {
        let xs = vec![vec![0.2], vec![0.8], vec![0.5]];
        let ys = vec![1.0, 0.4, 0.7];
        let mut gp = GaussianProcess::new(KernelKind::Matern52, 1);
        gp.fit(&xs, &ys, &mut rng()).unwrap();
        let before = gp.clone();
        let (m, v) = gp.predict(&[0.3]);

        assert!(gp.hallucinate(vec![f64::NAN], 0.0).is_err());

        assert_eq!(gp.len(), 3);
        assert_eq!(gp.x, before.x);
        assert_eq!(gp.y_norm, before.y_norm);
        assert_eq!(gp.chol, before.chol);
        assert_eq!(gp.alpha, before.alpha);
        assert_eq!(gp.noise.to_bits(), before.noise.to_bits());
        assert_eq!(gp.epoch, before.epoch);
        let (m2, v2) = gp.predict(&[0.3]);
        assert_eq!(m2.to_bits(), m.to_bits());
        assert_eq!(v2.to_bits(), v.to_bits());
    }

    #[test]
    fn pool_posterior_survives_appends_and_refits_bitwise() {
        let xs = vec![vec![0.1], vec![0.45], vec![0.9]];
        let ys = vec![0.3, 1.0, 0.2];
        let mut gp = GaussianProcess::new(KernelKind::Matern52, 1);
        let pool = vec![vec![0.6], vec![0.05], vec![0.45]];
        let mut post = PoolPosterior::new(&pool, 4);
        let mut check = |gp: &GaussianProcess| {
            let (means, vars) = post.update(gp);
            for ((x, m), v) in pool.iter().zip(means).zip(vars) {
                let (fm, fv) = gp.predict(x);
                assert_eq!((m.to_bits(), v.to_bits()), (fm.to_bits(), fv.to_bits()));
            }
        };
        check(&gp);
        gp.fit_with_hypers(&xs, &ys, 0.3, 1.0, 1e-4).unwrap();
        check(&gp);
        gp.hallucinate(vec![0.3], 0.5).unwrap();
        check(&gp);
        // A refit on other data and hypers must not reuse the old rows.
        gp.fit_with_hypers(&[vec![0.7], vec![0.2]], &[1.0, 0.0], 0.8, 2.0, 1e-2)
            .unwrap();
        check(&gp);
    }

    #[test]
    fn hyper_search_never_selects_a_non_finite_lml() {
        let mut best = None;
        for lml in [f64::NAN, -3.0, -1.0] {
            if improves_lml(lml, best) {
                best = Some(lml);
            }
        }
        assert_eq!(best, Some(-1.0));
        // Finite ties keep the first maximum.
        assert!(!improves_lml(-1.0, Some(-1.0)));
        assert!(!improves_lml(f64::INFINITY, None));
    }
}
