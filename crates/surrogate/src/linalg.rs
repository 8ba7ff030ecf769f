//! Minimal dense linear algebra: just enough for Gaussian-process
//! regression (symmetric positive-definite systems via Cholesky).

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
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
        Matrix {
            rows: r,
            cols: c,
            data: rows.iter().flatten().copied().collect(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        let mut out = vec![0.0; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *o = row.iter().zip(v).map(|(a, b)| a * b).sum();
        }
        out
    }

    /// In-place Cholesky factorization of a symmetric positive-definite
    /// matrix; returns the lower-triangular factor `L` with `L Lᵀ = A`.
    ///
    /// # Errors
    ///
    /// Returns `Err(LinalgError::NotPositiveDefinite)` if a non-positive
    /// pivot is encountered.
    pub fn cholesky(&self) -> Result<Matrix, LinalgError> {
        assert_eq!(self.rows, self.cols, "cholesky needs a square matrix");
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
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
    /// # Panics
    ///
    /// Panics on dimension mismatch or if `x` is longer than `L`.
    pub fn solve_lower_extend(&self, b: &[f64], x: &mut Vec<f64>) {
        assert_eq!(self.rows, self.cols);
        assert_eq!(b.len(), self.rows, "solve_lower dimension mismatch");
        assert!(x.len() <= self.rows, "solve_lower_extend: stale solution");
        let n = self.rows;
        for (i, &bi) in b.iter().enumerate().skip(x.len()) {
            let row = &self.data[i * n..i * n + i];
            let mut sum = bi;
            for (l, xk) in row.iter().zip(x.iter()) {
                sum -= l * xk;
            }
            x.push(sum / self.data[i * n + i]);
        }
    }

    /// Solves `Lᵀ x = b` for lower-triangular `L` (backward substitution
    /// on the transpose).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn solve_lower_transpose(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, self.cols);
        assert_eq!(b.len(), self.rows, "solve_lower_transpose mismatch");
        let n = self.rows;
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = b[i];
            for k in i + 1..n {
                sum -= self[(k, i)] * x[k];
            }
            x[i] = sum / self[(i, i)];
        }
        x
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
    /// The new row is computed with exactly the operation order of
    /// [`Matrix::cholesky`]'s row loop, so an append-grown factor is
    /// bitwise identical to a from-scratch factorization of the
    /// extended matrix.
    ///
    /// # Errors
    ///
    /// Returns `Err(LinalgError::NotPositiveDefinite)` with
    /// `pivot == n` if the extended matrix is not positive definite.
    ///
    /// # Panics
    ///
    /// Panics if the factor is not square or `k.len() != n`.
    pub fn cholesky_append_row(&mut self, k: &[f64], d: f64) -> Result<(), LinalgError> {
        assert_eq!(self.rows, self.cols, "cholesky_append_row needs square L");
        let n = self.rows;
        assert_eq!(k.len(), n, "cholesky_append_row column length mismatch");
        // Grow to (n+1)×(n+1), shifting existing rows into the wider
        // layout back to front so nothing is overwritten.
        let mut grown = vec![0.0; (n + 1) * (n + 1)];
        for i in 0..n {
            grown[i * (n + 1)..i * (n + 1) + n].copy_from_slice(&self.data[i * n..(i + 1) * n]);
        }
        // New row, exactly as cholesky() computes row i = n.
        let mut row = vec![0.0; n + 1];
        for j in 0..n {
            let mut sum = k[j];
            for t in 0..j {
                sum -= row[t] * grown[j * (n + 1) + t];
            }
            row[j] = sum / grown[j * (n + 1) + j];
        }
        let mut sum = d;
        for r in row.iter().take(n) {
            sum -= r * r;
        }
        if sum <= 0.0 || !sum.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: n });
        }
        row[n] = sum.sqrt();
        grown[n * (n + 1)..].copy_from_slice(&row);
        self.rows = n + 1;
        self.cols = n + 1;
        self.data = grown;
        Ok(())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
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
