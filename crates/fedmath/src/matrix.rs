//! Dense, row-major `f64` matrices.
//!
//! [`Matrix`] is deliberately small: it is the parameter storage of the
//! models in `fedmodels` (construction, row and slice access, matrix–matrix
//! and matrix–vector products) and nothing more; the batched arithmetic
//! lives in [`crate::kernel`].
//! All fallible operations return [`MathError`] rather than
//! panicking so that the simulation layers can surface shape bugs as errors.

use crate::{MathError, Result};
use serde::{Deserialize, Serialize};

/// A dense, row-major matrix of `f64` values.
///
/// # Example
///
/// ```
/// use fedmath::Matrix;
///
/// let m = Matrix::zeros(2, 3);
/// assert_eq!(m.shape(), (2, 3));
/// assert_eq!(m.get(1, 2), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::EmptyInput`] if `rows` is empty and
    /// [`MathError::ShapeMismatch`] if the rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(MathError::EmptyInput {
                what: "Matrix::from_rows",
            });
        }
        let cols = rows[0].len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(MathError::ShapeMismatch {
                    left: (1, cols),
                    right: (1, r.len()),
                    op: "from_rows",
                });
            }
            let _ = i;
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidArgument`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MathError::InvalidArgument {
                message: format!(
                    "data length {} does not match shape {}x{}",
                    data.len(),
                    rows,
                    cols
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the matrix has zero entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows` or `col >= cols`.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows` or `col >= cols`.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Borrows the row with index `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row index out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutably borrows the row with index `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    pub fn row_mut(&mut self, row: usize) -> &mut [f64] {
        assert!(row < self.rows, "row index out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Borrows the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix and returns the underlying row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Matrix product `self * other`.
    ///
    /// Delegates to [`crate::kernel::gemm`], whose documented ascending-`k`
    /// accumulation order matches the naive triple loop bit-for-bit. There is
    /// no sparsity shortcut: `0.0 * NaN` and `0.0 * inf` propagate as IEEE
    /// 754 requires.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::ShapeMismatch`] if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(MathError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "matmul",
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        crate::kernel::gemm(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// Uses [`crate::kernel::dot`] per row, so the per-example forward pass
    /// and the batched [`crate::kernel::gemm_nt`] forward pass share one
    /// accumulation order and produce bit-identical activations.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::ShapeMismatch`] if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(MathError::ShapeMismatch {
                left: self.shape(),
                right: (v.len(), 1),
                op: "matvec",
            });
        }
        let mut out = vec![0.0; self.rows];
        crate::kernel::matvec_into(self.rows, self.cols, &self.data, v, &mut out);
        Ok(out)
    }

    /// Matrix-vector product written into an existing buffer (no allocation).
    ///
    /// Same accumulation order as [`Matrix::matvec`].
    ///
    /// # Errors
    ///
    /// Returns [`MathError::ShapeMismatch`] if `v.len() != self.cols()` or
    /// `out.len() != self.rows()`.
    pub fn matvec_into(&self, v: &[f64], out: &mut [f64]) -> Result<()> {
        if v.len() != self.cols || out.len() != self.rows {
            return Err(MathError::ShapeMismatch {
                left: self.shape(),
                right: (v.len(), 1),
                op: "matvec_into",
            });
        }
        crate::kernel::matvec_into(self.rows, self.cols, &self.data, v, out);
        Ok(())
    }

    /// Copies `params` into the matrix storage in place (no reallocation).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::ShapeMismatch`] if `params.len() != self.len()`.
    pub fn copy_from_slice(&mut self, params: &[f64]) -> Result<()> {
        if params.len() != self.data.len() {
            return Err(MathError::ShapeMismatch {
                left: self.shape(),
                right: (params.len(), 1),
                op: "copy_from_slice",
            });
        }
        self.data.copy_from_slice(params);
        Ok(())
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let i = Matrix::identity(3);
        let product = a.matmul(&i).unwrap();
        assert_eq!(product, a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_propagates_nan_through_zero_coefficients() {
        // Regression: the seed implementation skipped k-terms where
        // A[i][k] == 0.0, so 0.0 * NaN (which is NaN per IEEE 754) was
        // silently dropped. The kernel-backed matmul must propagate it.
        let a = Matrix::from_rows(&[vec![0.0, 1.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![f64::NAN], vec![2.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(c.get(0, 0).is_nan(), "0.0 * NaN must propagate NaN");

        let b_inf = Matrix::from_rows(&[vec![f64::INFINITY], vec![2.0]]).unwrap();
        let c_inf = a.matmul(&b_inf).unwrap();
        assert!(
            c_inf.get(0, 0).is_nan(),
            "0.0 * inf is NaN and must propagate"
        );
    }

    #[test]
    fn matvec_into_matches_matvec() {
        let a = Matrix::from_rows(&[vec![1.0, -1.0], vec![2.0, 0.5]]).unwrap();
        let v = vec![3.0, 4.0];
        let mut out = vec![f64::NAN; 2];
        a.matvec_into(&v, &mut out).unwrap();
        assert_eq!(out, a.matvec(&v).unwrap());
        assert!(a.matvec_into(&v, &mut [0.0]).is_err());
        assert!(a.matvec_into(&[1.0], &mut out).is_err());
    }

    #[test]
    fn copy_from_slice_updates_in_place() {
        let mut m = Matrix::zeros(2, 2);
        m.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert!(m.copy_from_slice(&[1.0]).is_err());
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let err = a.matmul(&b).unwrap_err();
        assert!(matches!(err, MathError::ShapeMismatch { op: "matmul", .. }));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, -1.0], vec![2.0, 0.5]]).unwrap();
        let v = vec![3.0, 4.0];
        let got = a.matvec(&v).unwrap();
        assert_eq!(got, vec![-1.0, 8.0]);
    }

    #[test]
    fn matvec_rejects_bad_length() {
        let a = Matrix::zeros(2, 2);
        assert!(a.matvec(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_rows_validates() {
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn from_fn_builds_expected_entries() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.get(1, 2), 12.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn rows_accessors() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        m.row_mut(0)[1] = 9.0;
        assert_eq!(m.get(0, 1), 9.0);
        assert_eq!(m.as_slice().len(), 4);
        assert_eq!(m.clone().into_vec(), vec![1.0, 9.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn get_out_of_bounds_panics() {
        Matrix::zeros(1, 1).get(0, 1);
    }

    #[test]
    fn matrix_is_serializable() {
        fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}
        assert_serde::<Matrix>();
    }

    #[test]
    fn default_is_empty() {
        let m = Matrix::default();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }
}
