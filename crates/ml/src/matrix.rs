//! A minimal row-major dense matrix.
//!
//! Sized for this workload: training sets are (samples × bit-features)
//! tensors — §V-A.1's "2D tensor of shape (n, m)" — with `m` up to a few
//! thousand after PCA. No BLAS; the hot loops are simple enough that LLVM
//! autovectorizes them.

/// Row-major `f32` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Builds from row slices (all must share one length).
    pub fn from_rows<R: AsRef<[f32]>>(rows: &[R]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].as_ref().len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.as_ref().len(), cols, "ragged rows");
            data.extend_from_slice(r.as_ref());
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows (samples).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    /// Iterator over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// The flat backing buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat backing buffer (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Column-wise mean vector (length = `cols`). Zero vector when empty.
    pub fn col_mean(&self) -> Vec<f32> {
        let mut mean = vec![0.0f32; self.cols];
        if self.rows == 0 {
            return mean;
        }
        for row in self.iter_rows() {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += *v;
            }
        }
        let n = self.rows as f32;
        for m in &mut mean {
            *m /= n;
        }
        mean
    }

    /// Returns a copy with `mean` subtracted from every row.
    pub fn centered(&self, mean: &[f32]) -> Matrix {
        assert_eq!(mean.len(), self.cols);
        let mut out = self.clone();
        for i in 0..out.rows {
            for (v, m) in out.row_mut(i).iter_mut().zip(mean) {
                *v -= *m;
            }
        }
        out
    }

    /// Selects a subset of rows by index.
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (dst, &src) in idx.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// `selfᵀ * v` for a vector `v` of length `rows`.
    pub fn t_mat_vec(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.rows);
        let mut out = vec![0.0f32; self.cols];
        for (row, &s) in self.iter_rows().zip(v) {
            if s != 0.0 {
                for (o, x) in out.iter_mut().zip(row) {
                    *o += s * x;
                }
            }
        }
        out
    }
}

/// Dot product of two equal-length slices.
///
/// Eight independent accumulators: a naive `zip().map().sum()` forms one
/// serial dependency chain (f32 addition is not associative, so LLVM cannot
/// vectorize it), which made model prediction on large values ~8× slower.
/// The explicit lanes give LLVM reassociation it is allowed to exploit.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for i in 0..8 {
            acc[i] += xa[i] * xb[i];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    acc.iter().sum::<f32>() + tail
}

/// Squared Euclidean (L2²) distance — the K-means objective's kernel
/// (paper Eq. 1 uses the L2 norm). Multi-accumulator for the same reason as
/// [`dot`].
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for i in 0..8 {
            let d = xa[i] - xb[i];
            acc[i] += d * d;
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    acc.iter().sum::<f32>() + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.row(1), &[4., 5., 6.]);
        assert_eq!(m.get(0, 2), 3.0);
    }

    #[test]
    fn from_rows_matches_from_vec() {
        let a = Matrix::from_rows(&[vec![1.0f32, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn ragged_rows_rejected() {
        Matrix::from_rows(&[vec![1.0f32], vec![1.0, 2.0]]);
    }

    #[test]
    fn col_mean_and_centering() {
        let m = Matrix::from_rows(&[vec![1.0f32, 10.0], vec![3.0, 30.0]]);
        assert_eq!(m.col_mean(), vec![2.0, 20.0]);
        let c = m.centered(&m.col_mean());
        assert_eq!(c.row(0), &[-1.0, -10.0]);
        assert_eq!(c.col_mean(), vec![0.0, 0.0]);
    }

    #[test]
    fn mat_vec_and_transpose() {
        let m = Matrix::from_rows(&[vec![1.0f32, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let rows_dot: Vec<f32> = m.iter_rows().map(|r| dot(r, &[1.0, 1.0])).collect();
        assert_eq!(rows_dot, vec![3.0, 7.0, 11.0]);
        assert_eq!(m.t_mat_vec(&[1.0, 0.0, 1.0]), vec![6.0, 8.0]);
    }

    #[test]
    fn select_rows_copies() {
        let m = Matrix::from_rows(&[vec![1.0f32], vec![2.0], vec![3.0]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[3.0]);
        assert_eq!(s.row(1), &[1.0]);
    }

    #[test]
    fn distance_kernels() {
        assert_eq!(dot(&[1., 2.], &[3., 4.]), 11.0);
        assert_eq!(sq_dist(&[0., 0.], &[3., 4.]), 25.0);
        assert_eq!(sq_dist(&[1., 1.], &[1., 1.]), 0.0);
    }

    #[test]
    fn empty_matrix_edge_cases() {
        let m = Matrix::zeros(0, 0);
        assert_eq!(m.col_mean(), Vec::<f32>::new());
        assert_eq!(m.iter_rows().count(), 0);
    }
}
