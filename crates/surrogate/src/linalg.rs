//! Minimal dense linear algebra: just enough for Gaussian-process
//! regression (symmetric positive-definite systems via Cholesky).
//!
//! Every kernel here keeps the textbook per-element operation order —
//! each entry starts from its input and subtracts its products in
//! ascending index order — so results are bitwise identical to the
//! scalar row loops they replace. Speed comes only from running
//! independent elements side by side over contiguous columns, which
//! LLVM vectorizes.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense matrix of `f64`, indexed `(row, col)`.
///
/// Storage is column-major with a leading dimension `ld ≥ rows`: column
/// `c` occupies `data[c * ld..c * ld + rows]`. The buffer may hold spare
/// rows and columns beyond the view, which lets a Cholesky factor grow
/// by appended rows in place; every slot outside the view holds `0.0`.
#[derive(Debug, Clone)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    ld: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            ld: rows,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a nested row representation.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(
            rows.iter().all(|row| row.len() == c),
            "ragged rows in matrix construction"
        );
        let mut m = Matrix::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Column `c` as a contiguous slice of `rows` entries.
    fn col(&self, c: usize) -> &[f64] {
        &self.data[c * self.ld..c * self.ld + self.rows]
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        (0..self.rows)
            .map(|i| v.iter().enumerate().map(|(j, b)| self[(i, j)] * b).sum())
            .collect()
    }

    /// Cholesky factorization of a symmetric positive-definite matrix;
    /// returns the lower-triangular factor `L` with `L Lᵀ = A`. Only the
    /// lower triangle of `A` is read.
    ///
    /// # Errors
    ///
    /// Returns `Err(LinalgError::NotPositiveDefinite)` at the first
    /// non-positive or non-finite pivot.
    pub fn cholesky(&self) -> Result<Matrix, LinalgError> {
        let mut l = Matrix::zeros(0, 0);
        self.cholesky_into(&mut l)?;
        Ok(l)
    }

    /// [`Matrix::cholesky`] into `l`, reusing its buffer. On error `l`
    /// holds a partial factor.
    ///
    /// A left-looking column factorization: column `j` starts as
    /// `A[j.., j]`, takes `col_j -= L[j][k] · col_k` for `k = 0, 1, …,
    /// j−1` (a contiguous axpy), then the pivot check, `sqrt` and the
    /// division of the entries below the diagonal. Each entry `(i, j)`
    /// thus sees exactly the subtractions `L[i][k]·L[j][k]` in ascending
    /// `k` of the row-by-row textbook loop, so the bits and the first
    /// failing pivot are the same.
    pub(crate) fn cholesky_into(&self, l: &mut Matrix) -> Result<(), LinalgError> {
        assert_eq!(self.rows, self.cols, "cholesky needs a square matrix");
        let n = self.rows;
        l.rows = n;
        l.cols = n;
        l.ld = n;
        l.data.clear();
        l.data.resize(n * n, 0.0);
        for j in 0..n {
            let (done, rest) = l.data.split_at_mut(j * n);
            let col = &mut rest[j..n];
            col.copy_from_slice(&self.col(j)[j..]);
            for k in 0..j {
                let prev = &done[k * n + j..(k + 1) * n];
                let ljk = prev[0];
                for (c, p) in col.iter_mut().zip(prev) {
                    *c -= p * ljk;
                }
            }
            let pivot = col[0];
            if pivot <= 0.0 || !pivot.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let d = pivot.sqrt();
            col[0] = d;
            for c in &mut col[1..] {
                *c /= d;
            }
        }
        Ok(())
    }

    /// Solves `L x = b` for lower-triangular `L` (forward substitution).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let mut x = Vec::with_capacity(self.rows);
        self.solve_lower_extend(b, &mut x);
        x
    }

    /// Resumes forward substitution: given `x` solving the leading
    /// `x.len()` rows of `L x = b`, appends the remaining entries. Rows
    /// are computed in the same order from any starting length, so the
    /// result is bitwise identical to one [`Matrix::solve_lower`] call —
    /// which lets a caller whose factor only ever grows by appended rows
    /// keep its solve and pay O(n) per new row instead of O(n²).
    ///
    /// Runs column by column: once `x[t]` is final, `x[i] -= L[i][t]·x[t]`
    /// for every later row `i` at once. Each `x[i]` still starts at `b[i]`
    /// and subtracts its terms in ascending `t` before dividing by
    /// `L[i][i]`, exactly as a row-by-row dot product would.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or if `x` is longer than `L`.
    pub fn solve_lower_extend(&self, b: &[f64], x: &mut Vec<f64>) {
        assert_eq!(self.rows, self.cols);
        assert_eq!(b.len(), self.rows, "solve_lower dimension mismatch");
        assert!(x.len() <= self.rows, "solve_lower_extend: stale solution");
        let m = x.len();
        x.extend_from_slice(&b[m..]);
        for t in 0..self.rows {
            let col = self.col(t);
            if t >= m {
                x[t] /= col[t];
            }
            let xt = x[t];
            let start = m.max(t + 1);
            for (xi, l) in x[start..].iter_mut().zip(&col[start..]) {
                *xi -= l * xt;
            }
        }
    }

    /// Solves `Lᵀ x = b` for lower-triangular `L` (backward substitution
    /// on the transpose).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn solve_lower_transpose(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_lower_transpose_in_place(&mut x);
        x
    }

    /// [`Matrix::solve_lower_transpose`] overwriting `x` (holding `b` on
    /// entry). Row `i` of `Lᵀ` is column `i` of `L`, read contiguously;
    /// each dot product runs in ascending `k`.
    pub(crate) fn solve_lower_transpose_in_place(&self, x: &mut [f64]) {
        assert_eq!(self.rows, self.cols);
        assert_eq!(x.len(), self.rows, "solve_lower_transpose mismatch");
        for i in (0..self.rows).rev() {
            let col = self.col(i);
            let (head, tail) = x.split_at_mut(i + 1);
            let mut sum = head[i];
            for (l, xk) in col[i + 1..].iter().zip(tail.iter()) {
                sum -= l * xk;
            }
            head[i] = sum / col[i];
        }
    }

    /// Log-determinant of `A = L Lᵀ` given this Cholesky factor `L`
    /// (`2 Σ log L_ii`).
    pub fn cholesky_log_det(&self) -> f64 {
        (0..self.rows).map(|i| self[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Extends this Cholesky factor `L` (of an `n×n` SPD matrix `A`) to
    /// the factor of the `(n+1)×(n+1)` matrix `[[A, k], [kᵀ, d]]` in
    /// O(n²), appending one row in place.
    ///
    /// The new row is computed with exactly the per-entry operation order
    /// of [`Matrix::cholesky`], so an append-grown factor is bitwise
    /// identical to a from-scratch factorization of the extended matrix.
    /// The buffer keeps spare rows and columns, so most appends move no
    /// existing entry.
    ///
    /// # Errors
    ///
    /// Returns `Err(LinalgError::NotPositiveDefinite)` with
    /// `pivot == n` if the extended matrix is not positive definite; the
    /// factor is then unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the factor is not square or `k.len() != n`.
    pub fn cholesky_append_row(&mut self, k: &[f64], d: f64) -> Result<(), LinalgError> {
        assert_eq!(self.rows, self.cols, "cholesky_append_row needs square L");
        let n = self.rows;
        assert_eq!(k.len(), n, "cholesky_append_row column length mismatch");
        self.reserve_square(n + 1);
        let ld = self.ld;
        // The new row is a forward solve `L r = k`, run column by column
        // in the spare upper part of column n (zero, and outside the
        // view until the append commits).
        let (cols, spare) = self.data.split_at_mut(n * ld);
        let r = &mut spare[..n];
        r.copy_from_slice(k);
        for t in 0..n {
            let col = &cols[t * ld..t * ld + n];
            r[t] /= col[t];
            let rt = r[t];
            for (ri, l) in r[t + 1..].iter_mut().zip(&col[t + 1..]) {
                *ri -= rt * l;
            }
        }
        let mut sum = d;
        for v in r.iter() {
            sum -= v * v;
        }
        if sum <= 0.0 || !sum.is_finite() {
            r.fill(0.0);
            return Err(LinalgError::NotPositiveDefinite { pivot: n });
        }
        for (t, v) in r.iter_mut().enumerate() {
            cols[t * ld + n] = std::mem::take(v);
        }
        spare[n] = sum.sqrt();
        self.rows = n + 1;
        self.cols = n + 1;
        Ok(())
    }

    /// Makes room for an `m × m` view: when the leading dimension or the
    /// buffer is too small, re-lays the entries out with a quarter of
    /// spare rows and columns, so appends amortize to O(n) moves each.
    fn reserve_square(&mut self, m: usize) {
        if self.ld >= m && self.data.len() >= m * self.ld {
            return;
        }
        let ld = m + m / 4;
        let mut data = vec![0.0; ld * ld];
        for c in 0..self.cols {
            data[c * ld..c * ld + self.rows].copy_from_slice(self.col(c));
        }
        self.ld = ld;
        self.data = data;
    }
}

impl PartialEq for Matrix {
    /// Equal when the views are: the same shape and entries, whatever the
    /// spare capacity.
    fn eq(&self, other: &Matrix) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && (0..self.cols).all(|c| self.col(c) == other.col(c))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[c * self.ld + r]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[c * self.ld + r]
    }
}

/// Errors from linear-algebra routines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix was not positive definite at the given pivot.
    NotPositiveDefinite {
        /// Pivot index at which factorization failed.
        pivot: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix not positive definite at pivot {pivot}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B Bᵀ + I for a fixed B is SPD.
        Matrix::from_rows(&[
            vec![4.0, 2.0, 0.6],
            vec![2.0, 5.0, 1.0],
            vec![0.6, 1.0, 3.0],
        ])
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd3();
        let l = a.cholesky().unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let mut v = 0.0;
                for k in 0..3 {
                    v += l[(i, k)] * l[(j, k)];
                }
                assert!((v - a[(i, j)]).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn solves_invert_cholesky() {
        let a = spd3();
        let l = a.cholesky().unwrap();
        let b = vec![1.0, -2.0, 0.5];
        // Solve A x = b via L then Lᵀ.
        let y = l.solve_lower(&b);
        let x = l.solve_lower_transpose(&y);
        let back = a.matvec(&x);
        for (u, v) in back.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn non_spd_rejected() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalue -1
        assert!(matches!(
            m.cholesky(),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn log_det_matches_identity() {
        let l = Matrix::identity(4).cholesky().unwrap();
        assert!(l.cholesky_log_det().abs() < 1e-12);
    }

    #[test]
    fn matvec_identity() {
        let i = Matrix::identity(3);
        let v = vec![3.0, -1.0, 2.0];
        assert_eq!(i.matvec(&v), v);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn append_row_is_bitwise_identical_to_scratch() {
        let a4 = Matrix::from_rows(&[
            vec![4.0, 2.0, 0.6, 0.3],
            vec![2.0, 5.0, 1.0, 0.2],
            vec![0.6, 1.0, 3.0, 0.9],
            vec![0.3, 0.2, 0.9, 2.5],
        ]);
        let mut grown = spd3().cholesky().unwrap();
        grown
            .cholesky_append_row(&[0.3, 0.2, 0.9], 2.5)
            .expect("extended matrix is SPD");
        let scratch = a4.cholesky().unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(
                    grown[(i, j)].to_bits(),
                    scratch[(i, j)].to_bits(),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn extended_solve_survives_row_append_bitwise() {
        let mut l = spd3().cholesky().unwrap();
        let b = [1.0, -2.0, 0.5, 0.7];
        let mut x = Vec::new();
        l.solve_lower_extend(&b[..3], &mut x);
        l.cholesky_append_row(&[0.3, 0.2, 0.9], 2.5).unwrap();
        l.solve_lower_extend(&b, &mut x);
        let scratch = l.solve_lower(&b);
        let bits = |v: &[f64]| v.iter().map(|u| u.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x), bits(&scratch));
    }

    #[test]
    fn append_row_rejects_indefinite_extension() {
        let mut l = spd3().cholesky().unwrap();
        // Diagonal too small for the new column: Schur complement < 0.
        let err = l.cholesky_append_row(&[2.0, 2.0, 1.0], 0.1).unwrap_err();
        assert_eq!(err, LinalgError::NotPositiveDefinite { pivot: 3 });
    }
}
