//! Minimal dense linear algebra: just enough for exact Gaussian-process
//! regression (symmetric positive-definite solves via Cholesky).

use crate::error::MlError;

/// A dense row-major matrix.
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

    /// Creates a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
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

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c] = v;
    }
}

/// The lower-triangular Cholesky factor `L` of a symmetric positive-definite
/// matrix `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorises a symmetric positive-definite matrix.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::NotPositiveDefinite`] when a pivot is not strictly
    /// positive (within a small tolerance), and
    /// [`MlError::InvalidParameter`] for non-square input.
    pub fn factor(a: &Matrix) -> Result<Self, MlError> {
        if a.rows() != a.cols() {
            return Err(MlError::InvalidParameter("cholesky needs a square matrix"));
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a.get(i, j);
                for k in 0..j {
                    sum -= l.get(i, k) * l.get(j, k);
                }
                if i == j {
                    if sum <= 1e-12 {
                        return Err(MlError::NotPositiveDefinite);
                    }
                    l.set(i, j, sum.sqrt());
                } else {
                    l.set(i, j, sum / l.get(j, j));
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Solves `L z = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.rows();
        debug_assert_eq!(b.len(), n);
        let mut z = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for (k, &zk) in z.iter().enumerate().take(i) {
                sum -= self.l.get(i, k) * zk;
            }
            z[i] = sum / self.l.get(i, i);
        }
        z
    }

    /// Solves `Lᵀ x = z` (backward substitution).
    pub fn solve_upper(&self, z: &[f64]) -> Vec<f64> {
        let n = self.l.rows();
        debug_assert_eq!(z.len(), n);
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = z[i];
            for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                sum -= self.l.get(k, i) * xk;
            }
            x[i] = sum / self.l.get(i, i);
        }
        x
    }

    /// Solves `A x = b` where `A = L Lᵀ`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper(&self.solve_lower(b))
    }
}

/// Squared Euclidean distance between two equal-length vectors.
///
/// # Panics
///
/// Panics in debug builds if lengths differ.
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cholesky_solves_spd_system() {
        // A = [[4,2],[2,3]], b = [6,5] -> x = [1,1].
        let a = Matrix::from_fn(2, 2, |r, c| [[4.0, 2.0], [2.0, 3.0]][r][c]);
        let ch = Cholesky::factor(&a).unwrap();
        let x = ch.solve(&[6.0, 5.0]);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_fn(2, 2, |r, c| [[1.0, 2.0], [2.0, 1.0]][r][c]);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(MlError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn cholesky_rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(MlError::InvalidParameter(_))
        ));
    }

    #[test]
    fn larger_system_round_trips() {
        // Random SPD: A = M Mᵀ + n I.
        let n = 12;
        let m = Matrix::from_fn(n, n, |r, c| ((r * 31 + c * 17) % 13) as f64 / 13.0);
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += m.get(i, k) * m.get(j, k);
                }
                a.set(i, j, s + if i == j { n as f64 } else { 0.0 });
            }
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..n)
            .map(|i| (0..n).map(|j| a.get(i, j) * x_true[j]).sum())
            .collect();
        let ch = Cholesky::factor(&a).unwrap();
        let x = ch.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "{xi} vs {ti}");
        }
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }
}
