//! [`apex_linalg::HierarchicalOperator`] against the dense algebra: `H_b`
//! written out from its interval tree, and its QR pseudoinverse.

mod tests {
    use apex_linalg::{HierarchicalOperator, OpScratch, StrategyOperator};

    use crate::{l1_operator_norm, pinv, Matrix};

    /// Dense `H_b` over `n` cells, built from the tree definition alone:
    /// one 0/1 row per node interval, each node split into `b` nearly equal
    /// children, rows ascending by `(lo, hi)` (the operator's row order).
    fn dense(n: usize, b: usize) -> Matrix {
        let mut intervals = Vec::new();
        let mut frontier = vec![(0usize, n)];
        while let Some((lo, hi)) = frontier.pop() {
            intervals.push((lo, hi));
            let (base, extra) = ((hi - lo) / b, (hi - lo) % b);
            let mut start = lo;
            for i in 0..b {
                let width = base + usize::from(i < extra);
                if hi - lo > 1 && width > 0 {
                    frontier.push((start, start + width));
                    start += width;
                }
            }
        }
        intervals.sort_unstable();
        let mut a = Matrix::zeros(intervals.len(), n);
        for (i, &(lo, hi)) in intervals.iter().enumerate() {
            for j in lo..hi {
                a[(i, j)] = 1.0;
            }
        }
        a
    }

    fn vec_close(a: &[f64], b: &[f64], tol: f64) -> bool {
        let scale = b.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol * scale)
    }

    #[test]
    fn solve_normal_matches_pinv_across_sizes_and_branchings() {
        for b in [2usize, 3, 5] {
            for n in [1usize, 2, 3, 4, 5, 7, 9, 16, 27, 31, 33, 50] {
                let op = HierarchicalOperator::new(n, b).unwrap();
                let a = dense(n, b);
                assert_eq!(op.shape(), a.shape(), "b={b} n={n}");
                let ap = pinv(&a).unwrap();
                // A⁺y via the operator vs the dense pseudoinverse.
                let y: Vec<f64> = (0..op.rows())
                    .map(|i| ((i * 7 % 13) as f64) - 6.0)
                    .collect();
                let via_op = op.pinv_apply(&y).unwrap();
                let via_dense = ap.matvec(&y).unwrap();
                assert!(
                    vec_close(&via_op, &via_dense, 1e-10),
                    "b={b} n={n}: {via_op:?} vs {via_dense:?}"
                );
            }
        }
    }

    #[test]
    fn apply_matches_dense() {
        for (n, b) in [(1usize, 2usize), (8, 2), (13, 3), (25, 5)] {
            let op = HierarchicalOperator::new(n, b).unwrap();
            let a = dense(n, b);
            let x: Vec<f64> = (0..n).map(|i| 0.5 * i as f64 - 1.0).collect();
            assert_eq!(op.apply(&x).unwrap(), a.matvec(&x).unwrap());
            // The transpose inside A⁺: A⁺y equals the normal solve of the
            // dense Aᵀy.
            let y: Vec<f64> = (0..op.rows()).map(|i| (i % 5) as f64 - 2.0).collect();
            let mut via_dense = Vec::new();
            let at = a.transpose().matvec(&y).unwrap();
            op.solve_normal_multi(&at, 1, &mut via_dense, &mut OpScratch::new())
                .unwrap();
            assert!(vec_close(&op.pinv_apply(&y).unwrap(), &via_dense, 1e-12));
        }
    }

    #[test]
    fn l1_norm_matches_dense() {
        for (n, b) in [(1usize, 2usize), (2, 2), (8, 2), (9, 3), (50, 2), (64, 4)] {
            let op = HierarchicalOperator::new(n, b).unwrap();
            assert_eq!(
                op.l1_operator_norm(),
                l1_operator_norm(&dense(n, b)),
                "n={n} b={b}"
            );
        }
    }
}
