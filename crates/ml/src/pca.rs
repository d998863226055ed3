//! Principal component analysis (§V-A.1, "Addressing the Curse of
//! Dimensionality").
//!
//! Large values featurize into thousands of bit-dimensions; the paper
//! projects them onto the leading principal components before clustering
//! (Figure 3 keeps the first components explaining >80% of the variance for
//! MNIST).
//!
//! Implementation: the Gram trick. For n samples × d features with n ≤ d we
//! eigendecompose the n×n Gram matrix instead of the d×d covariance — the
//! nonzero eigenvalues coincide and each covariance eigenvector is recovered
//! as `Xᵀu / ‖Xᵀu‖`. When d < n the covariance is decomposed directly.

use crate::linalg::sym_eigen;
use crate::matrix::Matrix;
use crate::simd::{stripe_accumulate, stripe_accumulate_scalar};

/// A fitted PCA projection.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f32>,
    /// `n_components × d`, rows are unit principal axes.
    components: Matrix,
    /// Full eigenvalue spectrum (descending, length `min(n-1, d)` nonzero
    /// entries at most).
    spectrum: Vec<f64>,
    total_variance: f64,
}

impl Pca {
    /// Fits on `data` (samples × features), retaining `n_components`
    /// components (clamped to the spectrum's length). Single-threaded; see
    /// [`Pca::fit_with_threads`] for the multicore variant Figure 11 times.
    pub fn fit(data: &Matrix, n_components: usize) -> Pca {
        Self::fit_with_threads(data, n_components, 1)
    }

    /// Fits with `threads` workers parallelizing the Gram-matrix build (the
    /// dominant cost for wide data).
    pub fn fit_with_threads(data: &Matrix, n_components: usize, threads: usize) -> Pca {
        let n = data.rows();
        let d = data.cols();
        if n == 0 || d == 0 {
            return Pca {
                mean: vec![0.0; d],
                components: Matrix::zeros(0, d),
                spectrum: Vec::new(),
                total_variance: 0.0,
            };
        }
        let mean = data.col_mean();
        let xc = data.centered(&mean);
        let denom = (n.max(2) - 1) as f64;

        let (spectrum, components) = if n <= d {
            // Gram trick: G[i][j] = <xi, xj> / (n-1). Rows are independent,
            // so they parallelize over contiguous chunks.
            let mut g = vec![0.0f64; n * n];
            let threads = threads.max(1).min(n.max(1));
            if threads == 1 {
                for i in 0..n {
                    for j in 0..=i {
                        let v = f64::from(crate::matrix::dot(xc.row(i), xc.row(j))) / denom;
                        g[i * n + j] = v;
                        g[j * n + i] = v;
                    }
                }
            } else {
                let chunk = n.div_ceil(threads);
                let row_chunks: Vec<&mut [f64]> = g.chunks_mut(chunk * n).collect();
                std::thread::scope(|scope| {
                    for (t, rows) in row_chunks.into_iter().enumerate() {
                        let xc = &xc;
                        scope.spawn(move || {
                            for (off, row) in rows.chunks_mut(n).enumerate() {
                                let i = t * chunk + off;
                                for (j, slot) in row.iter_mut().enumerate().take(i + 1) {
                                    *slot =
                                        f64::from(crate::matrix::dot(xc.row(i), xc.row(j))) / denom;
                                }
                            }
                        });
                    }
                });
                // Mirror the lower triangle.
                for i in 0..n {
                    for j in (i + 1)..n {
                        g[i * n + j] = g[j * n + i];
                    }
                }
            }
            let eig = sym_eigen(&g, n);
            let keep = n_components.min(n);
            let mut comp = Matrix::zeros(keep, d);
            let mut kept = 0;
            for (lam, u) in eig.values.iter().zip(&eig.vectors) {
                if kept == keep {
                    break;
                }
                if *lam <= 1e-12 {
                    break; // null space — no principal axis to recover
                }
                // w = Xcᵀ u, normalized.
                let uf: Vec<f32> = u.iter().map(|&x| x as f32).collect();
                let mut w = xc.t_mat_vec(&uf);
                let norm: f32 = w.iter().map(|x| x * x).sum::<f32>().sqrt();
                if norm > 0.0 {
                    for x in &mut w {
                        *x /= norm;
                    }
                }
                comp.row_mut(kept).copy_from_slice(&w);
                kept += 1;
            }
            let comp = truncate_rows(comp, kept, d);
            (eig.values, comp)
        } else {
            // Direct covariance: C = XcᵀXc / (n-1), d×d.
            let mut c = vec![0.0f64; d * d];
            for row in xc.iter_rows() {
                for i in 0..d {
                    let ri = f64::from(row[i]);
                    if ri == 0.0 {
                        continue;
                    }
                    for j in 0..=i {
                        c[i * d + j] += ri * f64::from(row[j]);
                    }
                }
            }
            for i in 0..d {
                for j in 0..=i {
                    let v = c[i * d + j] / denom;
                    c[i * d + j] = v;
                    c[j * d + i] = v;
                }
            }
            let eig = sym_eigen(&c, d);
            let keep = n_components.min(d);
            let mut comp = Matrix::zeros(keep, d);
            for k in 0..keep {
                for (j, &x) in eig.vectors[k].iter().enumerate() {
                    comp.set(k, j, x as f32);
                }
            }
            (eig.values, comp)
        };

        let spectrum: Vec<f64> = spectrum.into_iter().map(|v| v.max(0.0)).collect();
        let total_variance: f64 = spectrum.iter().sum();
        Pca {
            mean,
            components,
            spectrum,
            total_variance,
        }
    }

    /// Number of retained components.
    pub fn n_components(&self) -> usize {
        self.components.rows()
    }

    /// Explained-variance ratio per spectral component (descending) — the
    /// series behind Figure 3.
    pub fn explained_variance_ratio(&self) -> Vec<f64> {
        if self.total_variance <= 0.0 {
            return vec![0.0; self.spectrum.len()];
        }
        self.spectrum
            .iter()
            .map(|v| v / self.total_variance)
            .collect()
    }

    /// Cumulative explained-variance ratio (the y-axis of Figure 3).
    pub fn cumulative_variance_ratio(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.explained_variance_ratio()
            .into_iter()
            .map(|v| {
                acc += v;
                acc
            })
            .collect()
    }

    /// Smallest number of components whose cumulative variance ratio
    /// reaches `target` (e.g. 0.8 as in the paper's MNIST example).
    pub fn components_for_variance(&self, target: f64) -> usize {
        for (i, c) in self.cumulative_variance_ratio().iter().enumerate() {
            if *c >= target {
                return i + 1;
            }
        }
        self.spectrum.len()
    }

    /// Projects a single sample onto the retained components.
    pub fn transform_row(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.n_components()];
        self.transform_row_into(x, &mut Vec::new(), &mut out);
        out
    }

    /// [`Pca::transform_row`] into `out`, centring through the reusable
    /// `centered` buffer.
    fn transform_row_into(&self, x: &[f32], centered: &mut Vec<f32>, out: &mut [f32]) {
        assert_eq!(x.len(), self.mean.len(), "dimension mismatch");
        centered.clear();
        centered.extend(x.iter().zip(&self.mean).map(|(a, m)| a - m));
        for (o, axis) in out.iter_mut().zip(self.components.iter_rows()) {
            *o = crate::matrix::dot(axis, centered);
        }
    }

    /// Projects every row of `data`.
    pub fn transform(&self, data: &Matrix) -> Matrix {
        self.transform_with_threads(data, 1)
    }

    /// Projects every row of `data` with `threads` workers, each writing
    /// its band of output rows in place (one centring buffer per worker).
    pub fn transform_with_threads(&self, data: &Matrix, threads: usize) -> Matrix {
        let (n, nc) = (data.rows(), self.n_components());
        let mut out = Matrix::zeros(n, nc);
        if n == 0 || nc == 0 {
            return out;
        }
        let chunk = n.div_ceil(threads.max(1).min(n));
        let project_band = |first: usize, band: &mut [f32]| {
            let mut centered = Vec::with_capacity(self.mean.len());
            for (off, dst) in band.chunks_mut(nc).enumerate() {
                self.transform_row_into(data.row(first + off), &mut centered, dst);
            }
        };
        let mut bands = out.as_mut_slice().chunks_mut(chunk * nc).enumerate();
        let (_, own) = bands.next().expect("n > 0");
        std::thread::scope(|scope| {
            for (t, band) in bands {
                scope.spawn(move || project_band(t * chunk, band));
            }
            project_band(0, own);
        });
        out
    }
}

/// A projection of raw *byte* values straight into PCA space, skipping the
/// intermediate bit-feature vector.
///
/// For a value with `s` set bits, projection costs `s × n_components`
/// additions instead of `dims × n_components` multiply-adds — a large win
/// for the sparse datasets (bags-of-words, access samples) and a constant
/// win in allocations for everything. The component matrix is stored
/// transposed (dims × n_components) so each set bit touches one contiguous
/// stripe.
#[derive(Debug, Clone)]
pub struct BitProjector {
    n_components: usize,
    input_bytes: usize,
    /// dims × n_components, row per bit-feature.
    transposed: Vec<f32>,
    /// `-Wᵀ·mean`, the constant term of `W(x - mean)` for 0/1 features.
    offset: Vec<f32>,
}

impl BitProjector {
    /// Number of output components.
    pub fn n_components(&self) -> usize {
        self.n_components
    }

    /// Projects a raw byte value into a caller-provided buffer — the
    /// allocation-free variant the store's per-shard scratch uses.
    ///
    /// Runs the shared AVX2 stripe kernel ([`crate::simd`]) when the CPU
    /// supports it; the result is **bit-for-bit** identical to
    /// [`BitProjector::project_into_scalar`] either way — each component's
    /// f32 sum adds the set bits' rows in the same ascending order.
    ///
    /// # Panics
    /// Panics if `bytes` does not match the fitted dimensionality or
    /// `out.len() != self.n_components()`.
    pub fn project_into(&self, bytes: &[u8], out: &mut [f32]) {
        self.project_with(stripe_accumulate, bytes, out);
    }

    /// Scalar reference for [`BitProjector::project_into`]: identical
    /// semantics and results, never uses SIMD. Kept public as the
    /// equivalence baseline for tests and the benchmark's scalar column.
    ///
    /// # Panics
    /// As [`BitProjector::project_into`].
    pub fn project_into_scalar(&self, bytes: &[u8], out: &mut [f32]) {
        self.project_with(stripe_accumulate_scalar, bytes, out);
    }

    #[inline(always)]
    fn project_with<'v>(&self, kernel: unsafe fn(&[f32], usize, SetBits<'v>, &mut [f32]), bytes: &'v [u8], out: &mut [f32]) {
        assert_eq!(bytes.len(), self.input_bytes, "dimension mismatch");
        assert_eq!(out.len(), self.n_components, "output buffer mismatch");
        out.copy_from_slice(&self.offset);
        // SAFETY: the set bits of an `input_bytes`-byte value index below
        // `input_bytes · 8`, the transposed matrix's row count.
        unsafe { kernel(&self.transposed, self.n_components, SetBits::new(bytes), out) };
    }
}

/// Indices of the set bits of a value (bit `i` of byte `p` is `8p + i`), in
/// ascending order: one little-endian `u64` word at a time, lowest set bit
/// first (`tzcnt`, then `blsr`), the byte tail zero-padded into a last
/// word. A hand-written `next`, not a `flat_map`, so it inlines into the
/// stripe kernel's loop.
struct SetBits<'a> {
    words: std::slice::ChunksExact<'a, u8>,
    tail: Option<u64>,
    word: u64,
    /// Bit index of `word`'s bit 0 (wraps to 0 on the first word).
    base: usize,
}

impl<'a> SetBits<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        let words = bytes.chunks_exact(8);
        let rest = words.remainder();
        let mut pad = [0u8; 8];
        pad[..rest.len()].copy_from_slice(rest);
        let tail = (!rest.is_empty()).then(|| u64::from_le_bytes(pad));
        SetBits { words, tail, word: 0, base: 0usize.wrapping_sub(64) }
    }
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    #[inline(always)]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.word = match self.words.next() {
                Some(w) => u64::from_le_bytes(w.try_into().expect("8-byte chunk")),
                None => self.tail.take()?,
            };
            self.base = self.base.wrapping_add(64);
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

impl Pca {
    /// Builds the byte-level fast projector for this basis. The input
    /// dimensionality must be a whole number of bytes (bit features).
    pub fn bit_projector(&self) -> BitProjector {
        let dims = self.components.cols();
        assert_eq!(dims % 8, 0, "bit projector needs byte-aligned features");
        let nc = self.components.rows();
        let mut transposed = vec![0.0f32; dims * nc];
        for c in 0..nc {
            for (j, &w) in self.components.row(c).iter().enumerate() {
                transposed[j * nc + c] = w;
            }
        }
        // offset[c] = -W[c]·mean
        let offset: Vec<f32> = (0..nc)
            .map(|c| -crate::matrix::dot(self.components.row(c), &self.mean))
            .collect();
        BitProjector {
            n_components: nc,
            input_bytes: dims / 8,
            transposed,
            offset,
        }
    }
}

fn truncate_rows(m: Matrix, rows: usize, cols: usize) -> Matrix {
    if m.rows() == rows {
        return m;
    }
    let mut out = Matrix::zeros(rows, cols);
    for i in 0..rows {
        out.row_mut(i).copy_from_slice(m.row(i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Data stretched along a known axis: y = 3x + noise.
    fn line_data(n: usize) -> Matrix {
        let mut rng = StdRng::seed_from_u64(17);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| {
                let t: f32 = rng.gen::<f32>() * 10.0 - 5.0;
                vec![t, 3.0 * t + (rng.gen::<f32>() - 0.5) * 0.1]
            })
            .collect();
        Matrix::from_rows(&rows)
    }

    #[test]
    fn first_component_follows_dominant_axis() {
        let data = line_data(100);
        let pca = Pca::fit(&data, 1);
        let c = pca.components.row(0);
        // Direction ∝ (1, 3)/√10.
        let expected = (1.0f32 / 10.0f32.sqrt(), 3.0 / 10.0f32.sqrt());
        let (a, b) = (c[0].abs(), c[1].abs());
        assert!((a - expected.0).abs() < 0.02, "{c:?}");
        assert!((b - expected.1).abs() < 0.02, "{c:?}");
    }

    #[test]
    fn variance_ratio_concentrates_on_line() {
        let data = line_data(100);
        let pca = Pca::fit(&data, 2);
        let r = pca.explained_variance_ratio();
        assert!(r[0] > 0.99, "{r:?}");
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(pca.components_for_variance(0.8), 1);
    }

    #[test]
    fn gram_and_covariance_paths_agree() {
        // n < d triggers the Gram path; duplicate features give a known
        // answer either way. Compare projections from both paths.
        let rows: Vec<Vec<f32>> = (0..5)
            .map(|i| {
                let t = i as f32;
                vec![t, 2.0 * t, -t]
            })
            .collect();
        let data = Matrix::from_rows(&rows); // n=5 > d=3 -> covariance path
        let small = data.select_rows(&[0, 1]); // n=2 < d=3 -> Gram path
        let p1 = Pca::fit(&data, 1);
        let p2 = Pca::fit(&small, 1);
        // Both must find the same 1-D subspace (up to sign).
        let a = p1.components.row(0);
        let b = p2.components.row(0);
        let dotab: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        assert!(dotab.abs() > 0.999, "a={a:?} b={b:?}");
    }

    #[test]
    fn transform_reduces_dimensions() {
        let data = line_data(50);
        let pca = Pca::fit(&data, 1);
        let t = pca.transform(&data);
        assert_eq!(t.rows(), 50);
        assert_eq!(t.cols(), 1);
        // Projection preserves the dominant variance: spread along the
        // component is comparable to the original spread.
        let var: f32 = {
            let mean = t.col_mean()[0];
            t.iter_rows().map(|r| (r[0] - mean).powi(2)).sum::<f32>() / 49.0
        };
        assert!(var > 1.0);
    }

    #[test]
    fn cumulative_is_monotone_to_one() {
        let data = line_data(30);
        let pca = Pca::fit(&data, 2);
        let cum = pca.cumulative_variance_ratio();
        for w in cum.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
        assert!((cum.last().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_data_safe() {
        let pca = Pca::fit(&Matrix::zeros(0, 4), 2);
        assert_eq!(pca.n_components(), 0);
        assert!(pca.explained_variance_ratio().is_empty());
    }

    #[test]
    fn constant_data_has_zero_variance() {
        let data = Matrix::from_rows(&vec![vec![5.0f32, 5.0]; 10]);
        let pca = Pca::fit(&data, 2);
        assert!(pca.total_variance.abs() < 1e-9);
    }

    #[test]
    fn bit_projector_matches_transform_row() {
        use crate::featurize::{bits_to_features, featurize_values};
        let values: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i, i.wrapping_mul(3), 0x0F, i]).collect();
        let data = featurize_values(&values);
        let pca = Pca::fit(&data, 3);
        let proj = pca.bit_projector();
        for v in &values {
            let slow = pca.transform_row(&bits_to_features(v));
            let mut fast = vec![0.0f32; proj.n_components()];
            proj.project_into(v, &mut fast);
            assert_eq!(slow.len(), fast.len());
            for (a, b) in slow.iter().zip(&fast) {
                assert!((a - b).abs() < 1e-3, "{slow:?} vs {fast:?}");
            }
        }
    }

    #[test]
    fn components_are_orthonormal() {
        let mut rng = StdRng::seed_from_u64(3);
        let rows: Vec<Vec<f32>> = (0..40)
            .map(|_| (0..6).map(|_| rng.gen::<f32>()).collect())
            .collect();
        let data = Matrix::from_rows(&rows);
        let pca = Pca::fit(&data, 3);
        for i in 0..3 {
            for j in 0..3 {
                let d: f32 = pca
                    .components
                    .row(i)
                    .iter()
                    .zip(pca.components.row(j))
                    .map(|(a, b)| a * b)
                    .sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-3, "({i},{j}) dot={d}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A synthetic projector: exactness is a kernel property, independent
    /// of how the basis was fit, so random weights cover every width.
    fn random_projector(n_components: usize, input_bytes: usize, next: &mut impl FnMut() -> u64) -> BitProjector {
        let mut weight = || (next() % 20_001) as f32 / 1e4 - 1.0;
        BitProjector {
            n_components,
            input_bytes,
            transposed: (0..input_bytes * 8 * n_components).map(|_| weight()).collect(),
            offset: (0..n_components).map(|_| weight()).collect(),
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dispatched projection equals the scalar reference bit for
        /// bit, and both equal the plain ascending walk over every bit
        /// feature — across component counts on and off the SIMD widths,
        /// value lengths that are not whole `u64` words, and each density:
        /// empty, sparse, half and all-ones.
        #[test]
        fn projection_simd_matches_scalar_bit_for_bit(
            seed in 0u64..5000,
            n_components in 1usize..41,
            input_bytes in 1usize..301,
        ) {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(3);
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let proj = random_projector(n_components, input_bytes, &mut next);
            for density in 0..4 {
                let value: Vec<u8> = (0..input_bytes)
                    .map(|_| match density {
                        0 => 0,
                        1 => (next() & next() & next()) as u8,
                        2 => next() as u8,
                        _ => 0xFF,
                    })
                    .collect();

                let mut simd = vec![0.0f32; n_components];
                let mut scalar = vec![0.0f32; n_components];
                proj.project_into(&value, &mut simd);
                proj.project_into_scalar(&value, &mut scalar);
                prop_assert_eq!(bits(&simd), bits(&scalar), "density {}", density);

                let mut naive = proj.offset.clone();
                for j in (0..input_bytes * 8).filter(|j| value[j / 8] >> (j % 8) & 1 == 1) {
                    for (o, w) in naive.iter_mut().zip(&proj.transposed[j * n_components..]) {
                        *o += w;
                    }
                }
                prop_assert_eq!(bits(&scalar), bits(&naive), "density {}", density);
            }
        }
    }
}
