//! Property-based tests on the core invariants: sparse/dense agreement,
//! operator/CSR agreement, hierarchical-solve vs dense-pinv agreement,
//! blocked-MC determinism, pseudoinverse identities, workload sensitivity,
//! partition correctness, translation monotonicity, and Laplace tails.
//!
//! The offline build has no `proptest`, so cases are generated by a small
//! seeded harness: every property runs over `CASES` pseudo-random inputs
//! drawn from a fixed-seed `StdRng`, which keeps failures reproducible
//! (the failing case index pins down the input exactly).

use std::sync::Arc;

use apex_core::CompileMemo;
use apex_data::{Attribute, CmpOp, Dataset, Domain, Predicate, Schema, Value};
use apex_linalg::OpScratch;
use apex_mech::mc::{unit_errors_operator_blocked, SAMPLE_BLOCK};
use apex_mech::{Laplace, LaplaceMechanism, Mechanism, PreparedQuery};
use apex_oracle::{l1_operator_norm, pinv, Matrix};
use apex_query::{AccuracySpec, CompiledWorkload, ExplorationQuery, Strategy as HierStrategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cases per property (the old proptest config ran 64).
const CASES: usize = 64;

fn schema(max: i64) -> Schema {
    Schema::new(vec![Attribute::new("v", Domain::IntRange { min: 0, max })]).unwrap()
}

/// A random interval workload over [0, 64).
fn interval_workload(rng: &mut StdRng) -> Vec<Predicate> {
    let n = rng.gen_range(1..12);
    (0..n)
        .map(|_| {
            let lo = rng.gen_range(0i64..64);
            let w = rng.gen_range(1i64..32);
            Predicate::range("v", lo as f64, (lo + w).min(64) as f64)
        })
        .collect()
}

/// A random small dataset over [0, 64).
fn dataset(rng: &mut StdRng) -> Dataset {
    let mut d = Dataset::empty(schema(63));
    for _ in 0..rng.gen_range(0..300) {
        d.push(vec![Value::Int(rng.gen_range(0i64..64))]).unwrap();
    }
    d
}

/// A random dense matrix; 0/1-valued (with the given density) or
/// real-valued in [-1, 1).
fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, zero_one: bool) -> Matrix {
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| {
            if zero_one {
                f64::from(rng.gen::<f64>() < 0.2)
            } else if rng.gen::<f64>() < 0.5 {
                0.0 // keep real-valued inputs sparse-ish too
            } else {
                rng.gen::<f64>() * 2.0 - 1.0
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

// ---------------------------------------------------------------------------
// CsrMatrix vs the dense oracle Matrix (tentpole invariants)
// ---------------------------------------------------------------------------

/// Every CSR operation agrees with its dense oracle counterpart to 1e-12 on
/// both random 0/1 and random real-valued matrices, and conversion
/// round-trips losslessly.
#[test]
fn csr_operations_agree_with_dense() {
    let mut rng = StdRng::seed_from_u64(0xC5A);
    for case in 0..CASES {
        let zero_one = case % 2 == 0;
        let rows = rng.gen_range(1usize..24);
        let cols = rng.gen_range(1usize..24);
        let d = random_matrix(&mut rng, rows, cols, zero_one);
        let s = d.to_csr();

        // Lossless round trip (bit-exact, not just 1e-12).
        assert_eq!(Matrix::from_csr(&s), d, "case {case}: round trip");

        // matvec.
        let x: Vec<f64> = (0..cols).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
        let dv = d.matvec(&x).unwrap();
        let sv = s.matvec(&x).unwrap();
        for (i, (a, b)) in dv.iter().zip(&sv).enumerate() {
            assert!(
                (a - b).abs() <= 1e-12,
                "case {case}: matvec[{i}] {a} vs {b}"
            );
        }

        // transpose.
        assert_eq!(
            Matrix::from_csr(&s.transpose()),
            d.transpose(),
            "case {case}: transpose"
        );

        // L1 operator norm (the sensitivity functional).
        let dn = l1_operator_norm(&d);
        let sn = s.l1_operator_norm();
        assert!(
            (dn - sn).abs() <= 1e-12,
            "case {case}: l1 norm {dn} vs {sn}"
        );
    }
}

/// The structural signature separates differing matrices and is stable
/// across identical rebuilds.
#[test]
fn csr_signature_is_stable() {
    let mut rng = StdRng::seed_from_u64(0x516);
    for case in 0..CASES {
        let rows = rng.gen_range(1usize..16);
        let cols = rng.gen_range(1usize..16);
        let d = random_matrix(&mut rng, rows, cols, true);
        let a = d.to_csr();
        let b = d.to_csr();
        assert_eq!(a.signature(), b.signature(), "case {case}: stability");
    }
}

// ---------------------------------------------------------------------------
// Blocked / parallel Monte-Carlo determinism (tentpole invariant)
// ---------------------------------------------------------------------------

/// The blocked (panelled + thread-parallel) MC simulation produces
/// byte-identical `unit_errors` to a serial run of one sample per panel,
/// for sample counts straddling the panel width and any thread count —
/// parallelism must never change a privacy decision.
#[test]
fn batched_mc_unit_errors_are_byte_identical_to_serial() {
    let mut rng = StdRng::seed_from_u64(0xDE7);
    for case in 0..12 {
        let b = [2usize, 3, 5][case % 3];
        let n = rng.gen_range(1usize..40);
        let rows = rng.gen_range(1usize..20);
        let samples = [0, 1, 63, 300, 513, 1100][case % 6];
        let w = random_matrix(&mut rng, rows, n, true).to_csr();
        let op = HierStrategy::Hierarchical { branching: b }
            .operator(n)
            .unwrap();
        let seed = rng.gen::<u64>();
        let serial = unit_errors_operator_blocked(&w, op.as_ref(), samples, seed, 1, 1);
        for (threads, block) in [(1usize, SAMPLE_BLOCK), (3, 64), (16, 1)] {
            let blocked =
                unit_errors_operator_blocked(&w, op.as_ref(), samples, seed, threads, block);
            assert_eq!(
                serial, blocked,
                "case {case}: b={b} n={n} N={samples} threads={threads} block={block}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Strategy operators vs dense pinv (tentpole invariants)
// ---------------------------------------------------------------------------

/// The hierarchical `solve_normal` reconstruction `(W A⁺) y` agrees with
/// the dense-pinv reconstruction to ≤ 1e-9 relative, across branchings
/// {2, 3, 5}, domains including non-powers of `b`, and random real-valued
/// workload matrices.
#[test]
fn hierarchical_solve_matches_dense_pinv_reconstruction() {
    let mut rng = StdRng::seed_from_u64(0x0F5);
    let domains = [1usize, 2, 3, 5, 6, 7, 11, 16, 23, 27, 31, 40, 50];
    for case in 0..CASES {
        let b = [2usize, 3, 5][case % 3];
        let n = domains[rng.gen_range(0..domains.len())];
        let strat = HierStrategy::Hierarchical { branching: b };
        let op = strat.operator(n).unwrap();
        let ap = pinv(&Matrix::from_csr(&strat.build_csr(n).unwrap())).unwrap();

        // Random real-valued workload over the same domain.
        let l = rng.gen_range(1usize..12);
        let w = random_matrix(&mut rng, l, n, case % 4 == 0);
        let w_csr = w.to_csr();

        // Random strategy answers y (the ŷ of the mechanism).
        let y: Vec<f64> = (0..op.rows())
            .map(|_| rng.gen::<f64>() * 6.0 - 3.0)
            .collect();

        // Operator path: W · (AᵀA)⁻¹ Aᵀ y; dense path: (W A⁺) y.
        let via_op = w_csr.matvec(&op.pinv_apply(&y).unwrap()).unwrap();
        let recon = w.matmul(&ap).unwrap();
        let via_dense = recon.matvec(&y).unwrap();
        let scale = via_dense.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        for (i, (a, d)) in via_op.iter().zip(&via_dense).enumerate() {
            assert!(
                (a - d).abs() <= 1e-9 * scale,
                "case {case} (b={b}, n={n}): row {i} {a} vs {d}"
            );
        }
    }
}

/// Operator `apply` and the transpose inside `pinv_apply` equal the CSR
/// matvecs — bit for bit, since both fix the same summation order — for
/// the hierarchical and identity strategies: `A⁺ y` is exactly the normal
/// solve of the transposed-CSR product.
#[test]
fn operator_apply_matches_csr_matvec() {
    let mut rng = StdRng::seed_from_u64(0x0F6);
    for case in 0..CASES {
        let n = rng.gen_range(1usize..80);
        let strat = if case % 4 == 0 {
            HierStrategy::Identity
        } else {
            HierStrategy::Hierarchical {
                branching: rng.gen_range(2usize..6),
            }
        };
        let op = strat.operator(n).unwrap();
        let csr = strat.build_csr(n).unwrap();
        assert_eq!(op.shape(), csr.shape(), "case {case}");
        assert_eq!(op.l1_operator_norm(), csr.l1_operator_norm());

        let x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
        assert_eq!(
            op.apply(&x).unwrap(),
            csr.matvec(&x).unwrap(),
            "case {case}: apply"
        );
        let y: Vec<f64> = (0..csr.rows())
            .map(|_| rng.gen::<f64>() * 4.0 - 2.0)
            .collect();
        let mut via_csr = Vec::new();
        op.solve_normal_multi(
            &csr.transpose().matvec(&y).unwrap(),
            1,
            &mut via_csr,
            &mut OpScratch::new(),
        )
        .unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&op.pinv_apply(&y).unwrap()),
            bits(&via_csr),
            "case {case}: transpose"
        );
    }
}

/// The normal solve really inverts the normal matrix: for random `x₀`,
/// `A⁺ (A x₀) = (AᵀA)⁻¹ AᵀA x₀` recovers `x₀`.
#[test]
fn solve_normal_inverts_the_normal_matrix() {
    let mut rng = StdRng::seed_from_u64(0x0F7);
    for case in 0..CASES {
        let n = rng.gen_range(1usize..120);
        let b = rng.gen_range(2usize..6);
        let op = HierStrategy::Hierarchical { branching: b }
            .operator(n)
            .unwrap();
        let x0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        let back = op.pinv_apply(&op.apply(&x0).unwrap()).unwrap();
        let scale = x0.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        for (a, e) in back.iter().zip(&x0) {
            assert!((a - e).abs() <= 1e-9 * scale, "case {case} (b={b}, n={n})");
        }
    }
}

// ---------------------------------------------------------------------------
// Workload / partition invariants (carried over from the proptest suite)
// ---------------------------------------------------------------------------

/// The compiled workload answer always equals direct counting —
/// for any interval workload and any dataset.
#[test]
fn partition_answers_match_direct_counts() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..CASES {
        let wl = interval_workload(&mut rng);
        let d = dataset(&mut rng);
        let q = PreparedQuery::prepare(&schema(63), &ExplorationQuery::wcq(wl.clone())).unwrap();
        let ans = q.compiled().true_answer(&d);
        for (i, pred) in wl.iter().enumerate() {
            assert_eq!(ans[i], d.count(pred).unwrap() as f64);
        }
    }
}

/// Every comparison operator × literal type × domain type: the cells a
/// predicate covers hold exactly the rows [`Dataset::count`] counts. The
/// attribute's domain, not the literal's type, decides where a cut falls:
/// `x <= 5` on a float attribute, or `v >= 2.5` on an integer one.
#[test]
fn partition_cells_hold_what_each_predicate_counts() {
    let mut rng = StdRng::seed_from_u64(47);
    let cats = ["a", "b", "c"];
    let s = Schema::new(vec![
        Attribute::new("i", Domain::IntRange { min: -20, max: 20 }),
        Attribute::new(
            "f",
            Domain::FloatRange {
                min: -2.0,
                max: 2.0,
            },
        ),
        Attribute::new("c", Domain::Categorical(cats.map(String::from).to_vec())),
        Attribute::new("t", Domain::Text),
        Attribute::new("b", Domain::Boolean),
    ])
    .unwrap();
    let ops = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    for case in 0..CASES {
        let mut d = Dataset::empty(s.clone());
        for _ in 0..rng.gen_range(0..200) {
            let mut row = vec![
                Value::Int(rng.gen_range(-20_i64..=20)),
                if rng.gen_bool(0.2) {
                    Value::Int(rng.gen_range(-2..2))
                } else {
                    Value::Float(f64::from(rng.gen_range(-20_i32..20)) / 10.0)
                },
                Value::from(cats[rng.gen_range(0..3_usize)]),
                Value::from(["a", "x", ""][rng.gen_range(0..3_usize)]),
                Value::Bool(rng.gen_bool(0.5)),
            ];
            for v in &mut row {
                if rng.gen_bool(0.1) {
                    *v = Value::Null;
                }
            }
            d.push(row).unwrap();
        }
        for attr in ["i", "f", "c", "t", "b"] {
            let k: i32 = rng.gen_range(-22..=22);
            let literals = [
                Value::Int(k.into()),
                Value::Int((k / 10).into()),
                Value::Float(f64::from(k)),
                Value::Float(f64::from(k) / 10.0),
                Value::Float(f64::from(k) + 0.5),
                Value::Float(-0.0),
                Value::from(["a", "x", "q"][rng.gen_range(0..3_usize)]),
                Value::Bool(rng.gen_bool(0.5)),
            ];
            // A string attribute's segments are its mentioned values plus
            // one "other": only `=` and `!=` are cell-constant on it.
            let ordered_string = |op: CmpOp, v: &Value| {
                matches!(v, Value::Str(_)) && !matches!(op, CmpOp::Eq | CmpOp::Ne)
            };
            let mut workload: Vec<Predicate> = ops
                .iter()
                .flat_map(|&op| literals.iter().map(move |v| (op, v)))
                .filter(|&(op, v)| !(ordered_string(op, v) && matches!(attr, "c" | "t")))
                .map(|(op, v)| Predicate::cmp(attr, op, v.clone()))
                .collect();
            let (lo, hi) = (f64::from(k) / 10.0, f64::from(k) / 4.0 + 0.5);
            workload.push(Predicate::range(attr, lo.min(hi), lo.max(hi)));
            workload.push(Predicate::is_null(attr));
            let p = apex_data::DomainPartition::build(&s, &workload).unwrap();
            let x = p.histogram(&d);
            for (i, pred) in workload.iter().enumerate() {
                let via: f64 = p.cells_of(i).iter().map(|&c| x[c]).sum();
                let direct = d.count(pred).unwrap() as f64;
                assert_eq!(via, direct, "case {case}: {pred:?}");
            }
        }
    }
}

/// A compile-memo hit is what a fresh compile gives: the same CSR,
/// signature, sensitivity and row→cell mapping.
#[test]
fn compile_memo_hits_equal_a_fresh_compile() {
    let mut rng = StdRng::seed_from_u64(8);
    let (memo, s) = (CompileMemo::default(), Arc::new(schema(63)));
    for _ in 0..CASES {
        let q = ExplorationQuery::wcq(interval_workload(&mut rng));
        memo.prepare(&s, &q).unwrap();
        let hits = memo.stats().hits;
        let hit = memo.prepare(&s, &q).unwrap();
        assert_eq!(memo.stats().hits, hits + 1);
        let (c, fresh) = (
            hit.compiled(),
            CompiledWorkload::compile(&s, &q.workload).unwrap(),
        );
        assert_eq!(c.csr(), fresh.csr());
        assert_eq!(c.signature(), fresh.signature());
        assert_eq!(c.sensitivity().to_bits(), fresh.sensitivity().to_bits());
        assert!(c.partition().same_mapping(fresh.partition()));
    }
}

/// Sensitivity is the max, over single-tuple insertions, of the
/// answer-vector L1 change — by definition. Verify ‖W‖₁ dominates
/// the observed change for arbitrary inserted values.
#[test]
fn sensitivity_bounds_single_tuple_influence() {
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..CASES {
        let wl = interval_workload(&mut rng);
        let d = dataset(&mut rng);
        let extra = rng.gen_range(0i64..64);
        let q = PreparedQuery::prepare(&schema(63), &ExplorationQuery::wcq(wl)).unwrap();
        let before = q.compiled().true_answer(&d);
        let mut d2 = d.clone();
        d2.push(vec![Value::Int(extra)]).unwrap();
        let after = q.compiled().true_answer(&d2);
        let l1_change: f64 = before.iter().zip(&after).map(|(a, b)| (b - a).abs()).sum();
        assert!(l1_change <= q.sensitivity() + 1e-9);
    }
}

/// Moore–Penrose identities for every hierarchical strategy size, built
/// through the sparse constructor.
#[test]
fn pinv_identities_for_strategies() {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..24 {
        let n = rng.gen_range(1usize..40);
        let b = rng.gen_range(2usize..5);
        let a_csr = HierStrategy::Hierarchical { branching: b }
            .build_csr(n)
            .unwrap();
        let a = Matrix::from_csr(&a_csr);
        let ap = pinv(&a).unwrap();
        let aapa = a.matmul(&ap).unwrap().matmul(&a).unwrap();
        assert!(aapa.approx_eq(&a, 1e-7));
        let apaap = ap.matmul(&a).unwrap().matmul(&ap).unwrap();
        assert!(apaap.approx_eq(&ap, 1e-7));
        // Full column rank ⇒ A⁺A = I.
        assert!(ap.matmul(&a).unwrap().approx_eq(&Matrix::identity(n), 1e-7));
    }
}

/// H_b sensitivity equals the number of tree levels covering the
/// deepest cell: ≤ ceil(log_b n) + 1 — computed on the CSR form.
#[test]
fn hierarchical_sensitivity_is_logarithmic() {
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..CASES {
        let n = rng.gen_range(2usize..200);
        let b = rng.gen_range(2usize..5);
        let a = HierStrategy::Hierarchical { branching: b }
            .build_csr(n)
            .unwrap();
        let sens = a.l1_operator_norm();
        let depth = (n as f64).log(b as f64).ceil() + 1.0;
        assert!(sens <= depth + 1.0, "sens {sens} vs depth bound {depth}");
    }
}

/// LM translation is monotone: tighter α or β never costs less.
#[test]
fn lm_translation_monotone() {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..CASES {
        let wl = interval_workload(&mut rng);
        let a1 = rng.gen_range(1.0f64..100.0);
        let factor = rng.gen_range(1.01f64..4.0);
        let beta = rng.gen_range(1e-4f64..0.2);
        let q = PreparedQuery::prepare(&schema(63), &ExplorationQuery::wcq(wl)).unwrap();
        let tight = AccuracySpec::new(a1, beta).unwrap();
        let loose = AccuracySpec::new(a1 * factor, beta).unwrap();
        let e_tight = LaplaceMechanism.translate(&q, &tight).unwrap().upper;
        let e_loose = LaplaceMechanism.translate(&q, &loose).unwrap().upper;
        assert!(e_tight >= e_loose);

        let looser_beta = AccuracySpec::new(a1, (beta * 2.0).min(0.5)).unwrap();
        let e_lb = LaplaceMechanism.translate(&q, &looser_beta).unwrap().upper;
        assert!(e_lb <= e_tight + 1e-12);
    }
}

/// Laplace quantile/CDF round-trip and tail bound, for any scale.
#[test]
fn laplace_quantile_cdf_roundtrip() {
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..CASES {
        let b = rng.gen_range(0.01f64..100.0);
        let p = rng.gen_range(0.001f64..0.999);
        let d = Laplace::new(b);
        let x = d.quantile(p);
        assert!((d.cdf(x) - p).abs() < 1e-9);
        // abs_tail is monotone decreasing.
        assert!(d.abs_tail(1.0) >= d.abs_tail(2.0));
    }
}

/// The engine transcript stays valid for arbitrary budgets and query
/// sequences (a smaller randomized cousin of the dedicated
/// integration tests, exercised across many budgets).
#[test]
fn transcript_valid_for_random_budgets() {
    use apex_core::{ApexEngine, EngineConfig, Mode};
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..24 {
        let budget = rng.gen_range(0.01f64..2.0);
        let seed = rng.gen_range(0u64..50);
        let mut d = Dataset::empty(schema(15));
        for i in 0..200 {
            d.push(vec![Value::Int(i % 16)]).unwrap();
        }
        let mut engine = ApexEngine::new(
            d,
            EngineConfig {
                budget,
                mode: Mode::Optimistic,
                seed,
            },
        );
        let acc = AccuracySpec::new(25.0, 1e-3).unwrap();
        for i in 0..6 {
            let wl: Vec<Predicate> = (0..4)
                .map(|j| Predicate::eq("v", ((i + j) % 16) as i64))
                .collect();
            let _ = engine.submit(&ExplorationQuery::wcq(wl), &acc).unwrap();
        }
        assert!(engine.spent() <= budget + 1e-9);
        assert!(engine.transcript().is_valid(budget));
    }
}

/// After any k live mutations, the workload answers served from the
/// datasets' maintained views (and the paged scan) are **bit-identical**
/// to compiling from scratch over a fresh re-ingest of the final rows —
/// across Mem and Paged backends, including deletes of absent rows and
/// inserts that widen the domain mid-script.
///
/// The same script drives the histograms the datasets maintain for
/// themselves, both directly and through the engine path (Mem and Paged
/// engines answering a query of the workload after every step): after
/// each mutation — random ones, a delete of only absent rows, a
/// self-cancelling insert-then-delete, and one guaranteed widening insert
/// — every cached `x` equals a fresh rescan, f64 bit for f64 bit. (The
/// paged dataset and engine keep no views; they must scan to the same `x`.)
#[test]
fn k_mutations_maintain_answers_bit_identical_to_reingest() {
    use apex_core::{ApexEngine, EngineConfig, EngineError, Mode};
    use apex_query::CompiledWorkload;

    enum Step {
        Random,
        Insert(Vec<Vec<Value>>),
        Delete(Vec<Vec<Value>>),
    }

    let mut rng = StdRng::seed_from_u64(0xAB5E);
    let tmp = std::env::temp_dir().join(format!("apex-prop-mut-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let engine = |d: Dataset| {
        ApexEngine::new(
            d,
            EngineConfig {
                budget: 1e9,
                mode: Mode::Pessimistic,
                seed: 1,
            },
        )
    };
    let acc = AccuracySpec::new(25.0, 1e-3).unwrap();

    for case in 0..24 {
        let base: Vec<Vec<Value>> = (0..rng.gen_range(0..200))
            .map(|_| vec![Value::Int(rng.gen_range(0i64..64))])
            .collect();
        let workload = interval_workload(&mut rng);
        // The engines answer the workload as a top-1 query: LM and LTM
        // only, so no Monte-Carlo prepare, and `run` reads `x`.
        let query = ExplorationQuery::tcq(workload.clone(), 1);
        let mut mem = Dataset::new(schema(63), base.clone()).unwrap();
        let dir = tmp.join(format!("case-{case}"));
        let mut paged = mem.ingest_paged(&dir, 1, 8).unwrap();
        let mut engines = [
            engine(mem.clone()),
            engine(
                mem.ingest_paged(&tmp.join(format!("case-{case}-engine")), 1, 8)
                    .unwrap(),
            ),
        ];

        let mut w = CompiledWorkload::compile(&schema(63), &workload).unwrap();
        w.histogram(&mem);
        for e in &mut engines {
            e.submit(&query, &acc).unwrap();
        }
        // `shadow` mirrors the multiset the mutations should leave behind;
        // the fresh re-ingest at the end is built from it.
        let mut shadow = base.clone();

        let pair = vec![vec![Value::Int(rng.gen_range(0i64..64))]; 2];
        let mut plan: Vec<Step> = (0..rng.gen_range(1..8)).map(|_| Step::Random).collect();
        plan.push(Step::Delete(vec![vec![Value::Int(1_000_000)]])); // absent
        plan.push(Step::Insert(pair.clone())); // …and straight back out:
        plan.push(Step::Delete(pair)); // a self-cancelling pair
        let at = rng.gen_range(0..=plan.len() - 2);
        plan.insert(at, Step::Insert(vec![vec![Value::Int(96 + case)]])); // widens

        for (n, step) in plan.into_iter().enumerate() {
            let step = match step {
                Step::Random if shadow.is_empty() || rng.gen::<f64>() < 0.6 => Step::Insert(
                    (0..rng.gen_range(1..5))
                        .map(|_| {
                            // ~1 in 6 rows lands outside [0, 64): domain growth.
                            let v = if rng.gen_range(0..6) == 0 {
                                rng.gen_range(64i64..96)
                            } else {
                                rng.gen_range(0i64..64)
                            };
                            vec![Value::Int(v)]
                        })
                        .collect(),
                ),
                // Deletes mix present rows with absent ones (no-ops).
                Step::Random => Step::Delete(
                    (0..rng.gen_range(1..4))
                        .map(|_| {
                            if rng.gen::<f64>() < 0.7 {
                                shadow[rng.gen_range(0..shadow.len())].clone()
                            } else {
                                vec![Value::Int(rng.gen_range(0i64..64))]
                            }
                        })
                        .collect(),
                ),
                scripted => scripted,
            };
            // On odd steps an evaluate is in flight across the mutation, so
            // the engine mutates a copy-on-write clone of the dataset (views
            // included) and the stale evaluate's commit must be refused.
            let in_flight: Vec<_> = engines
                .iter_mut()
                .filter(|_| n % 2 == 1)
                .map(|e| e.evaluation_context())
                .collect();
            let (d_mem, d_paged) = match &step {
                Step::Insert(rows) => {
                    for e in &mut engines {
                        e.insert_rows(rows).unwrap();
                    }
                    shadow.extend(rows.iter().cloned());
                    (
                        mem.insert_rows(rows).unwrap(),
                        paged.insert_rows(rows).unwrap(),
                    )
                }
                Step::Delete(rows) => {
                    for e in &mut engines {
                        e.delete_rows(rows).unwrap();
                    }
                    let d_mem = mem.delete_rows(rows).unwrap();
                    for row in &d_mem.deleted {
                        let at = shadow.iter().position(|r| r == row).unwrap();
                        shadow.remove(at);
                    }
                    (d_mem, paged.delete_rows(rows).unwrap())
                }
                Step::Random => unreachable!("resolved above"),
            };
            assert_eq!(d_mem.inserted, d_paged.inserted, "case {case}");
            assert_eq!(d_mem.deleted, d_paged.deleted, "case {case}");
            // Widening must be deterministic across backends.
            assert_eq!(mem.schema(), paged.schema(), "case {case}");
            for (e, ctx) in engines.iter_mut().zip(in_flight) {
                let stale = ctx.evaluate(&query, &acc, f64::INFINITY).unwrap();
                assert!(
                    matches!(e.commit(stale), Err(EngineError::StaleEpoch { .. })),
                    "case {case} step {n}: an evaluate that raced a mutation committed"
                );
            }
            // A widening insert changed the schema: recompile against it.
            if w.schema() != mem.schema() {
                w = CompiledWorkload::compile(mem.schema(), &workload).unwrap();
            }

            // What the datasets maintained for themselves, against a rescan:
            // first whatever survived the mutation, then (asking again, so a
            // widening insert's cleared views are rebuilt) the served `x`.
            // (A paged dataset keeps no views: it scans, and must agree.)
            let at = format!("case {case} step {n}");
            assert!(mem.audit_views().is_ok(), "{at}: {:?}", mem.audit_views());
            let rescan = w.partition().histogram(&mem);
            assert_eq!(w.histogram(&mem), rescan, "{at}: mem view != rescan");
            assert_eq!(w.histogram(&paged), rescan, "{at}: paged scan != rescan");
            assert_eq!((mem.audit_views(), paged.audit_views()), (Ok(1), Ok(0)));
            for (e, views) in engines.iter_mut().zip([1, 0]) {
                assert!(e.audit_dataset_views().is_ok(), "{at}: engine views");
                e.submit(&query, &acc).unwrap();
                assert_eq!(e.audit_dataset_views(), Ok(views), "{at}: engine views");
            }
        }
        let s = engines[0].dataset_view_stats();
        assert!(
            s.folds > 0 && s.cleared > 0 && s.hits > 0,
            "case {case}: {s:?}"
        );
        assert_eq!(engines[1].dataset_view_stats(), Default::default());

        // From-scratch reference: fresh compile over a fresh re-ingest of
        // the final rows. Equality is full f64 bit-equality, not epsilon.
        let final_schema = mem.schema().clone();
        let fresh_mem = Dataset::new(final_schema.clone(), shadow.clone()).unwrap();
        let fresh_dir = tmp.join(format!("case-{case}-fresh"));
        let fresh_paged = fresh_mem.ingest_paged(&fresh_dir, 2, 8).unwrap();
        let fw = CompiledWorkload::compile(&final_schema, &workload).unwrap();
        let answer = fw.true_answer(&fresh_mem);
        assert_eq!(
            w.histogram(&mem),
            fw.histogram(&fresh_mem),
            "case {case}: histogram diverged"
        );
        assert_eq!(w.true_answer(&mem), answer, "case {case}: answer diverged");
        assert_eq!(
            w.true_answer(&paged),
            answer,
            "case {case}: mutated paged dataset diverged"
        );
        assert_eq!(
            fw.true_answer(&fresh_paged),
            answer,
            "case {case}: re-ingested paged dataset diverged"
        );
        assert_eq!(
            w.signature(),
            fw.signature(),
            "case {case}: compiled artifact diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&tmp);
}
