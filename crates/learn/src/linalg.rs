//! Minimal dense linear algebra for PCA: a small row-major matrix type
//! and a cyclic Jacobi eigensolver for symmetric matrices.

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
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

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from row-major nested vectors. Panics on ragged input.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == c), "ragged matrix rows");
        Matrix {
            rows: r,
            cols: c,
            data: rows.iter().flatten().copied().collect(),
        }
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product. Panics on shape mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Largest absolute off-diagonal element (square matrices).
    fn max_off_diagonal(&self) -> (usize, usize, f64) {
        let mut best = (0, 1, 0.0);
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if self[(i, j)].abs() > best.2 {
                    best = (i, j, self[(i, j)].abs());
                }
            }
        }
        best
    }

    /// Eigen-decomposition of a symmetric matrix by the cyclic Jacobi
    /// method. Returns `(eigenvalues, eigenvectors)` sorted by descending
    /// eigenvalue; eigenvector `k` is column `k` of the returned matrix,
    /// exposed as `Vec<Vec<f64>>` rows of length `n` per eigenvector.
    pub fn symmetric_eigen(&self) -> (Vec<f64>, Vec<Vec<f64>>) {
        assert_eq!(self.rows, self.cols, "eigen requires a square matrix");
        let n = self.rows;
        if n == 0 {
            return (Vec::new(), Vec::new());
        }
        let mut a = self.clone();
        let mut v = Matrix::identity(n);
        // Classical Jacobi: each rotation zeroes the largest off-diagonal
        // element; O(n² log(1/ε)) rotations suffice in practice.
        let max_rotations = 50 * n * n + 100;
        for _rotation in 0..max_rotations {
            let (p, q, off) = a.max_off_diagonal();
            if off < 1e-12 {
                break;
            }
            // Jacobi rotation zeroing a[p][q].
            let app = a[(p, p)];
            let aqq = a[(q, q)];
            let apq = a[(p, q)];
            let theta = (aqq - app) / (2.0 * apq);
            let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
            let c = 1.0 / (t * t + 1.0).sqrt();
            let s = t * c;
            for k in 0..n {
                let akp = a[(k, p)];
                let akq = a[(k, q)];
                a[(k, p)] = c * akp - s * akq;
                a[(k, q)] = s * akp + c * akq;
            }
            for k in 0..n {
                let apk = a[(p, k)];
                let aqk = a[(q, k)];
                a[(p, k)] = c * apk - s * aqk;
                a[(q, k)] = s * apk + c * aqk;
            }
            for k in 0..n {
                let vkp = v[(k, p)];
                let vkq = v[(k, q)];
                v[(k, p)] = c * vkp - s * vkq;
                v[(k, q)] = s * vkp + c * vkq;
            }
        }
        let mut pairs: Vec<(f64, Vec<f64>)> = (0..n)
            .map(|j| (a[(j, j)], (0..n).map(|i| v[(i, j)]).collect()))
            .collect();
        pairs.sort_by(|x, y| y.0.total_cmp(&x.0));
        let vals = pairs.iter().map(|(l, _)| *l).collect();
        let vecs = pairs.into_iter().map(|(_, v)| v).collect();
        (vals, vecs)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        let t = m.transpose();
        assert_eq!(t[(1, 0)], 2.0);
        let p = m.matmul(&Matrix::identity(2));
        assert_eq!(p, m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul(&b);
    }

    #[test]
    fn eigen_of_diagonal() {
        let m = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 1.0]]);
        let (vals, vecs) = m.symmetric_eigen();
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 1.0).abs() < 1e-10);
        assert!((vecs[0][0].abs() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn eigen_known_symmetric() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1 with eigenvectors
        // (1,1)/√2 and (1,−1)/√2.
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let (vals, vecs) = m.symmetric_eigen();
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 1.0).abs() < 1e-10);
        let v0 = &vecs[0];
        assert!((v0[0].abs() - 1.0 / 2f64.sqrt()).abs() < 1e-8);
        assert!((v0[0] - v0[1]).abs() < 1e-8);
    }

    #[test]
    fn eigen_reconstructs_matrix() {
        let m = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, 0.2],
            vec![0.5, 0.2, 2.0],
        ]);
        let (vals, vecs) = m.symmetric_eigen();
        // A == Σ λ_k v_k v_kᵀ
        let n = 3;
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += vals[k] * vecs[k][i] * vecs[k][j];
                }
                assert!((acc - m[(i, j)]).abs() < 1e-8, "({i},{j})");
            }
        }
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let m = Matrix::from_rows(&[
            vec![5.0, 2.0, 1.0],
            vec![2.0, 4.0, 0.5],
            vec![1.0, 0.5, 3.0],
        ]);
        let (_, vecs) = m.symmetric_eigen();
        for a in 0..3 {
            for b in 0..3 {
                let dot: f64 = vecs[a].iter().zip(vecs[b].iter()).map(|(x, y)| x * y).sum();
                let expect = if a == b { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn empty_eigen() {
        let (vals, vecs) = Matrix::zeros(0, 0).symmetric_eigen();
        assert!(vals.is_empty());
        assert!(vecs.is_empty());
    }
}
