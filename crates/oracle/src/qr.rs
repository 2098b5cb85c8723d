//! Householder QR decomposition.
//!
//! The strategy matrices APEx uses (identity, hierarchical `H2`/`Hb`,
//! prefix) all have full column rank, so QR is sufficient for the
//! reference pseudoinverse, and is far more numerically stable than
//! forming normal equations `AᵀA`.

use crate::Matrix;

/// The result of a thin Householder QR decomposition of an `m × n` matrix
/// (`m ≥ n`): `A = Q R` with `Q` an `m × n` matrix with orthonormal columns
/// and `R` an `n × n` upper-triangular matrix.
#[derive(Debug, Clone)]
pub struct QrDecomposition {
    /// `m × n` factor with orthonormal columns.
    pub q: Matrix,
    /// `n × n` upper-triangular factor.
    pub r: Matrix,
}

/// Relative pivot tolerance used to declare rank deficiency: a diagonal of
/// `R` smaller than `tol * max_abs(A) * max(m, n)` counts as zero.
const RANK_TOL: f64 = 1e-12;

/// Computes the thin QR decomposition of `a` via Householder reflections.
///
/// Returns `None` if `a` is empty, has more columns than rows (the thin
/// factorization requires `m ≥ n`; transpose first for wide inputs), or
/// has a collapsing pivot, i.e. (numerically) linearly dependent columns.
pub fn qr_decompose(a: &Matrix) -> Option<QrDecomposition> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 || m < n {
        return None;
    }

    // Work on a full copy of A; accumulate the reflections into an m×m
    // identity lazily represented by its first n columns at the end.
    let mut r = a.clone();
    // Householder vectors, stored per step (v has length m - k).
    let mut vs: Vec<Vec<f64>> = Vec::with_capacity(n);

    let scale = a.max_abs().max(1.0);
    let tol = RANK_TOL * scale * (m.max(n) as f64);

    for k in 0..n {
        // Build the Householder vector for column k below the diagonal.
        let mut norm2 = 0.0;
        for i in k..m {
            let v = r[(i, k)];
            norm2 += v * v;
        }
        let norm = norm2.sqrt();
        if norm <= tol {
            return None;
        }
        let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
        let mut v: Vec<f64> = (k..m).map(|i| r[(i, k)]).collect();
        v[0] -= alpha;
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        if vnorm2 <= tol * tol {
            // Column already lies along e_k; no reflection needed.
            vs.push(vec![0.0; m - k]);
            r[(k, k)] = alpha;
            continue;
        }

        // Apply H = I - 2 v vᵀ / (vᵀv) to the trailing submatrix of R.
        for j in k..n {
            let mut dot = 0.0;
            for (idx, &vi) in v.iter().enumerate() {
                dot += vi * r[(k + idx, j)];
            }
            let coef = 2.0 * dot / vnorm2;
            for (idx, &vi) in v.iter().enumerate() {
                r[(k + idx, j)] -= coef * vi;
            }
        }
        r[(k, k)] = alpha;
        for i in (k + 1)..m {
            r[(i, k)] = 0.0;
        }
        vs.push(v);
    }

    // Check the pivots once more (paranoia: tiny alphas can slip through).
    if (0..n).any(|k| r[(k, k)].abs() <= tol) {
        return None;
    }

    // Form thin Q = H_0 H_1 ... H_{n-1} * [I_n; 0] by applying the
    // reflections in reverse order to the first n columns of the identity.
    let mut q = Matrix::zeros(m, n);
    for j in 0..n {
        q[(j, j)] = 1.0;
    }
    for k in (0..n).rev() {
        let v = &vs[k];
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        if vnorm2 == 0.0 {
            continue;
        }
        for j in 0..n {
            let mut dot = 0.0;
            for (idx, &vi) in v.iter().enumerate() {
                dot += vi * q[(k + idx, j)];
            }
            let coef = 2.0 * dot / vnorm2;
            for (idx, &vi) in v.iter().enumerate() {
                q[(k + idx, j)] -= coef * vi;
            }
        }
    }

    // Truncate R to its upper n×n block.
    let mut rn = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            rn[(i, j)] = r[(i, j)];
        }
    }

    Some(QrDecomposition { q, r: rn })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_orthonormal_cols(q: &Matrix, tol: f64) {
        let qtq = q.transpose().matmul(q).unwrap();
        assert!(
            qtq.approx_eq(&Matrix::identity(q.cols()), tol),
            "QᵀQ != I: {qtq:?}"
        );
    }

    #[test]
    fn qr_reconstructs_square_matrix() {
        let a = Matrix::from_rows(&[
            vec![4.0, 1.0, 2.0],
            vec![2.0, 3.0, -1.0],
            vec![0.0, 1.0, 5.0],
        ]);
        let QrDecomposition { q, r } = qr_decompose(&a).unwrap();
        assert_orthonormal_cols(&q, 1e-10);
        let back = q.matmul(&r).unwrap();
        assert!(back.approx_eq(&a, 1e-10), "QR != A: {back:?}");
    }

    #[test]
    fn qr_reconstructs_tall_matrix() {
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![0.0, 1.0],
            vec![2.0, -1.0],
        ]);
        let QrDecomposition { q, r } = qr_decompose(&a).unwrap();
        assert_eq!(q.shape(), (4, 2));
        assert_eq!(r.shape(), (2, 2));
        assert_orthonormal_cols(&q, 1e-10);
        assert!(q.matmul(&r).unwrap().approx_eq(&a, 1e-10));
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 10.0],
        ]);
        let QrDecomposition { r, .. } = qr_decompose(&a).unwrap();
        for i in 0..3 {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn qr_detects_rank_deficiency() {
        // Third column = first + second.
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 1.0],
            vec![0.0, 1.0, 1.0],
            vec![1.0, 1.0, 2.0],
        ]);
        assert!(qr_decompose(&a).is_none());
    }

    #[test]
    fn qr_rejects_wide_matrix() {
        assert!(qr_decompose(&Matrix::zeros(2, 3)).is_none());
    }

    #[test]
    fn qr_rejects_empty() {
        assert!(qr_decompose(&Matrix::zeros(0, 0)).is_none());
    }

    #[test]
    fn qr_of_identity_is_identity() {
        let QrDecomposition { q, r } = qr_decompose(&Matrix::identity(4)).unwrap();
        // Q and R may differ from I by signs; Q*R must equal I exactly-ish.
        assert!(q.matmul(&r).unwrap().approx_eq(&Matrix::identity(4), 1e-12));
    }
}
