//! Golden bit pins for the strategy-operator kernels and the Monte-Carlo
//! prepare built on them.
//!
//! Every figure below is an FNV-1a hash over the exact `f64` bit patterns
//! an entry point produces on fixed inputs. A refactor of the kernels must
//! leave all of them unchanged: a translated ε, a reconstruction and a
//! simulated error are pure functions of their inputs and IEEE arithmetic,
//! so any drift here moves a seeded privacy decision somewhere downstream.
//! Change a pin only on purpose, together with the numeric change that
//! moves it.

use apex_linalg::{CsrBuilder, CsrMatrix, OpScratch};
use apex_mech::mc::{unit_errors_operator_blocked, McConfig, McTranslator};
use apex_query::Strategy;

/// FNV-1a over the bit patterns of `values`.
fn bits_hash(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// `len` deterministic values in [−10, 10) with fractional parts, from a
/// SplitMix64 stream keyed by `salt` — no dependence on any RNG crate.
fn values(len: usize, salt: u64) -> Vec<f64> {
    (0..len as u64)
        .map(|i| {
            let mut z = salt ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0
        })
        .collect()
}

/// A workload over `n` cells mixing prefix rows (the CSR panel's shared
/// sweep) and general interval rows (its per-row kernel).
fn mixed_workload(n: usize) -> CsrMatrix {
    let mut b = CsrBuilder::new(n);
    for i in 0..n.min(40) {
        let hi = (i * 7 % n) + 1;
        if i % 3 == 0 {
            b.push_interval_row(0, hi);
        } else {
            let lo = (i * 5) % hi;
            b.push_interval_row(lo, hi);
        }
    }
    b.finish()
}

#[test]
fn pinv_apply_bits_are_pinned() {
    const GOLDEN: [(usize, u64); 4] = [
        (1, 0x4082_c38a_907e_e890),
        (16, 0x6816_153f_9db0_d24d),
        (100, 0xece0_4aa4_171b_03a3),
        (1_000, 0xe790_bba5_5b0d_e97c),
    ];
    let mut got = Vec::new();
    for (n, _) in GOLDEN {
        let op = Strategy::H2.operator(n).unwrap();
        let y = values(op.rows(), 0xA5 ^ n as u64);
        got.push((n, bits_hash(&op.pinv_apply(&y).unwrap())));
    }
    assert_eq!(got, GOLDEN);
}

#[test]
fn panel_solve_bits_are_pinned() {
    // (k, pinv_apply_multi, solve_normal_multi), H2 over 100 cells; one
    // scratch reused across every width.
    const GOLDEN: [(usize, u64, u64); 4] = [
        (1, 0x119e_b13b_6282_cfdd, 0xb8d6_246b_5fc3_83aa),
        (7, 0x3835_9743_90e1_ea6d, 0x3082_2e3d_ef03_941e),
        (8, 0xe5ac_2675_44dd_d4eb, 0xe40c_16bc_16c6_5ff8),
        (13, 0x8db9_0e23_b7db_f69a, 0x466e_8257_d029_ca74),
    ];
    let op = Strategy::H2.operator(100).unwrap();
    let (m, n) = op.shape();
    let mut scratch = OpScratch::new();
    let mut out = Vec::new();
    let mut got = Vec::new();
    for (k, _, _) in GOLDEN {
        op.pinv_apply_multi(&values(m * k, 0xB0 + k as u64), k, &mut out, &mut scratch)
            .unwrap();
        let pinv = bits_hash(&out);
        op.solve_normal_multi(&values(n * k, 0xC0 + k as u64), k, &mut out, &mut scratch)
            .unwrap();
        got.push((k, pinv, bits_hash(&out)));
    }
    assert_eq!(got, GOLDEN);
}

#[test]
fn blocked_unit_errors_bits_are_pinned() {
    // (threads, block) — one sample per panel, and the served panel width
    // split over two threads with a ragged final panel.
    const GOLDEN: [(usize, usize, u64); 2] = [
        (1, 1, 0x7e8d_b708_1ed7_a8e0),
        (2, 512, 0x7e8d_b708_1ed7_a8e0),
    ];
    let n = 100;
    let w = mixed_workload(n);
    let op = Strategy::H2.operator(n).unwrap();
    let mut got = Vec::new();
    for (threads, block, _) in GOLDEN {
        let errors = unit_errors_operator_blocked(&w, op.as_ref(), 1_100, 0x601D, threads, block);
        got.push((threads, block, bits_hash(&errors)));
    }
    assert_eq!(got, GOLDEN);
}

#[test]
fn translated_epsilon_bits_are_pinned() {
    // (α, β) → ε bits through the served constructor.
    // ε ≈ 4.938 and ≈ 32.806.
    const GOLDEN: [(f64, f64, u64); 2] = [
        (10.0, 0.05, 0x4013_c084_01a4_54ed),
        (2.5, 0.001, 0x4040_6733_906c_ad98),
    ];
    let n = 100;
    let w = mixed_workload(n);
    let op = Strategy::H2.operator(n).unwrap();
    let cfg = McConfig {
        samples: 2_000,
        ..McConfig::default()
    };
    let t = McTranslator::with_operator(&w, op.as_ref(), op.l1_operator_norm(), cfg);
    let got: Vec<(f64, f64, u64)> = GOLDEN
        .iter()
        .map(|&(alpha, beta, _)| (alpha, beta, t.translate(alpha, beta).to_bits()))
        .collect();
    assert_eq!(got, GOLDEN);
}
