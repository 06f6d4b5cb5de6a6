//! Property-based tests for the linear-algebra substrate.

use lrd_tensor::dtype::KernelDtype;
use lrd_tensor::kernel::{Backend, NARROW_N, NR};
use lrd_tensor::matmul::{
    factored_matmul_with, gemm, matmul, matmul_transa, matmul_transb, mode_n_product,
    set_thread_limit, FactoredPlan, Trans, KC, MC, NC,
};
use lrd_tensor::qr::{orthonormality_error, qr_thin};
use lrd_tensor::rng::Rng64;
use lrd_tensor::svd::{svd_jacobi, truncated_svd};
use lrd_tensor::tucker::{tucker2, tucker_hoi, HoiOptions};
use lrd_tensor::Tensor;
use proptest::prelude::*;

/// Strategy: a random matrix with bounded dimensions, generated through the
/// workspace RNG from a proptest-chosen seed so shrinking stays meaningful.
fn matrix(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim, any::<u64>()).prop_map(|(m, n, seed)| {
        let mut rng = Rng64::new(seed);
        Tensor::randn(&[m, n], &mut rng)
    })
}

fn tensor3(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (2..=max_dim, 2..=max_dim, 2..=max_dim, any::<u64>()).prop_map(|(a, b, c, seed)| {
        let mut rng = Rng64::new(seed);
        Tensor::randn(&[a, b, c], &mut rng)
    })
}

/// Strategy: adversarial GEMM shapes `(m, k, n, seed)` — single-row inputs,
/// `k < 4`, `n` at every residue of the micro-kernel width, and each
/// packed-engine bound (`MC`, `KC`, `NC`, and `m·n ≤ 32·NC`) hit exactly
/// and crossed, so both sides of the in-place route are drawn — alongside
/// general small shapes.
fn adversarial_shape() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (any::<u64>(), any::<u64>()).prop_map(|(pick, seed)| {
        let r = |lo: usize, hi: usize, x: u64| lo + (x as usize) % (hi - lo + 1);
        let edge = |bound: usize, x: u64| bound + (x as usize) % 2;
        match pick % 7 {
            0 => (1, r(1, 3, pick >> 3), r(1, 2 * NR + 1, pick >> 8), seed),
            1 => (
                r(1, 8, pick >> 3),
                r(1, 3, pick >> 8),
                r(NR - 1, NR + 1, pick >> 16),
                seed,
            ),
            2 => (
                r(1, 20, pick >> 3),
                r(1, 24, pick >> 8),
                r(1, 40, pick >> 16),
                seed,
            ),
            3 => (
                r(1, 13, pick >> 3),
                r(1, 40, pick >> 8),
                r(1, 4 * NR, pick >> 16),
                seed,
            ),
            4 => (
                edge(MC, pick >> 3),
                r(1, 12, pick >> 8),
                r(1, 2 * NR, pick >> 16),
                seed,
            ),
            5 => (
                r(1, 8, pick >> 3),
                edge(KC, pick >> 8),
                r(1, 2 * NR, pick >> 16),
                seed,
            ),
            _ => (
                r(1, 40, pick >> 3),
                r(1, 8, pick >> 8),
                edge(NC, pick >> 16),
                seed,
            ),
        }
    })
}

/// `γ_k = k·u / (1 − k·u)` with `u = 2⁻²⁴`: the worst-case relative error
/// of a `k`-term f32 dot product accumulated in order, with or without
/// FMA (Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1).
fn gamma(k: usize) -> f64 {
    let ku = k as f64 * f64::from(f32::EPSILON) / 2.0;
    ku / (1.0 - ku)
}

/// Checks `c ≈ a · b` against an unblocked f64 reference, element by
/// element, within `γ_k · Σ|a||b|` — a bound from `k` alone, not a
/// tuned tolerance.
fn assert_within_gamma_bound(a: &Tensor, b: &Tensor, c: &Tensor) -> Result<(), TestCaseError> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    for i in 0..m {
        for j in 0..n {
            let (mut exact, mut magnitude) = (0.0f64, 0.0f64);
            for kk in 0..k {
                let p = f64::from(a.get(&[i, kk])) * f64::from(b.get(&[kk, j]));
                exact += p;
                magnitude += p.abs();
            }
            let err = (f64::from(c.get(&[i, j])) - exact).abs();
            prop_assert!(
                err <= gamma(k) * magnitude,
                "({m},{k},{n}) at ({i},{j}): error {err} over bound {}",
                gamma(k) * magnitude
            );
        }
    }
    Ok(())
}

/// Strategy: shapes `(m, k, n, seed, specials)` for the in-place routes —
/// `m` drawn at and across each `MC`-row chunk bound up to a prefill batch
/// of 1024, `k` at the model's widths and on both sides of `KC`, and `n`
/// on both sides of the row-dot bound `NARROW_N` — with `-0.0`, `±inf` and
/// NaN planted in the operands in half the cases.
fn route_shape() -> impl Strategy<Value = (usize, usize, usize, u64, bool)> {
    (any::<u64>(), any::<u64>()).prop_map(|(pick, seed)| {
        let pick_of = |options: &[usize], x: u64| options[(x as usize) % options.len()];
        let m = match pick % 2 {
            0 => 1 + (pick >> 1) as usize % 17,
            _ => pick_of(&[32, MC, MC + 1, 2 * MC + 1, 1024], pick >> 1),
        };
        let k = match (pick >> 8) % 2 {
            0 => 1 + (pick >> 9) as usize % (KC + 1),
            _ => pick_of(&[1, 40, 112, KC, KC + 1], pick >> 9),
        };
        let n = match (pick >> 24) % 4 {
            0 => NR + 1,
            _ => 1 + (pick >> 26) as usize % (NARROW_N + 2),
        };
        (m, k, n, seed, (pick >> 40) % 2 == 0)
    })
}

/// C element `(i, j)` of `a · b` as its explicit chain: from `+0.0` over
/// each `KC`-deep block of k in order (`mul_add` on `avx2+fma`,
/// `acc += a·b` on scalar), each block's sum added to a zero C once.
fn chain_reference(backend: Backend, a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (a, b) = (a.data(), b.data());
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            for k0 in (0..k).step_by(KC) {
                let mut acc = 0.0f32;
                for kk in k0..(k0 + KC).min(k) {
                    let (x, y) = (a[i * k + kk], b[kk * n + j]);
                    acc = match backend {
                        Backend::Scalar => acc + x * y,
                        Backend::Avx2Fma => x.mul_add(y, acc),
                    };
                }
                c[i * n + j] += acc;
            }
        }
    }
    c
}

/// `got` equals `want` bit for bit, counting any two NaNs as equal.
fn same_bits(got: &[f32], want: &[f32]) -> bool {
    got.iter()
        .zip(want)
        .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// A random `rows × cols` matrix with `-0.0`, `±inf` and NaN planted at a
/// few positions when `specials` is set.
fn with_specials(rows: usize, cols: usize, rng: &mut Rng64, specials: bool) -> Tensor {
    let mut t = Tensor::randn(&[rows, cols], rng);
    if specials {
        for v in [-0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let at = (rng.next_u64() % (rows * cols) as u64) as usize;
            t.data_mut()[at] = v;
        }
    }
    t
}

/// Strategy: factored-product shapes `([m, k, r1, r2, n], seed)` hitting
/// the fused pipeline's edges — rank-1 cores, single-row activations, `n`
/// straddling the micro-kernel width, ranks above `NR` — on both sides of
/// the in-place route: `m` crossing the `MC`-row packing chunk, `k` past
/// `KC` with `m ≤ MC`, and an in-place product large enough to be split
/// across threads.
fn factored_shape() -> impl Strategy<Value = ([usize; 5], u64)> {
    (any::<u64>(), any::<u64>()).prop_map(|(pick, seed)| {
        let r = |lo: usize, hi: usize, x: u64| lo + (x as usize) % (hi - lo + 1);
        let shape = match pick % 7 {
            0 => [1, r(1, 24, pick >> 3), 1, 1, r(NR - 1, NR + 1, pick >> 8)],
            1 => [
                r(1, 8, pick >> 3),
                r(1, 3, pick >> 8),
                r(1, 4, pick >> 16),
                r(1, 4, pick >> 24),
                r(1, 2 * NR + 1, pick >> 32),
            ],
            2 => [
                MC + 1 + (pick as usize >> 3) % 8,
                r(1, 8, pick >> 8),
                r(1, 6, pick >> 16),
                r(1, 6, pick >> 24),
                r(1, 8, pick >> 32),
            ],
            3 => [
                r(1, 20, pick >> 3),
                r(1, 24, pick >> 8),
                r(1, 10, pick >> 16),
                r(1, 10, pick >> 24),
                r(1, 40, pick >> 32),
            ],
            4 => [
                r(1, 32, pick >> 3),
                r(1, 48, pick >> 8),
                r(NR + 1, 3 * NR, pick >> 16),
                r(NR + 1, 3 * NR, pick >> 24),
                r(1, 48, pick >> 32),
            ],
            5 => [
                r(1, MC, pick >> 3),
                r(KC + 1, KC + 8, pick >> 16),
                r(1, 6, pick >> 24),
                r(1, 6, pick >> 32),
                r(1, 2 * NR, pick >> 40),
            ],
            // ≥ 2^20 multiply-adds, so more than one thread may take a band.
            _ => [
                r(MC - 8, MC, pick >> 3),
                KC,
                r(NR + 4, 2 * NR, pick >> 16),
                r(NR + 4, 2 * NR, pick >> 24),
                r(240, 256, pick >> 32),
            ],
        };
        (shape, seed)
    })
}

/// Generates the four factored-product operands for a [`factored_shape`].
fn factored_operands(shape: [usize; 5], seed: u64) -> (Tensor, Tensor, Tensor, Tensor) {
    let [m, k, r1, r2, n] = shape;
    let mut rng = Rng64::new(seed);
    let x = Tensor::randn(&[m, k], &mut rng);
    let u1 = Tensor::randn(&[k, r1], &mut rng);
    let core = Tensor::randn(&[r1, r2], &mut rng);
    let u2 = Tensor::randn(&[r2, n], &mut rng);
    (x, u1, core, u2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_associates_with_identity(a in matrix(12)) {
        let i = Tensor::eye(a.cols());
        prop_assert!(matmul(&a, &i).approx_eq(&a, 1e-4));
    }

    #[test]
    fn matmul_distributes_over_addition(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let a = Tensor::randn(&[6, 5], &mut rng);
        let b = Tensor::randn(&[5, 7], &mut rng);
        let c = Tensor::randn(&[5, 7], &mut rng);
        let lhs = matmul(&a, &b.add(&c).unwrap());
        let rhs = matmul(&a, &b).add(&matmul(&a, &c)).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn transpose_of_product_is_reversed_product(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let a = Tensor::randn(&[4, 6], &mut rng);
        let b = Tensor::randn(&[6, 5], &mut rng);
        let lhs = matmul(&a, &b).transpose();
        let rhs = matmul(&b.transpose(), &a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-4));
    }

    #[test]
    fn trans_variants_agree(case in adversarial_shape()) {
        // The transposed variants always pack; `matmul` reads small
        // products in place. Both accumulate each element in the same
        // order, so they must agree to the bit, and both must sit inside
        // the f64 reference's γ_k bound.
        let (m, k, n, seed) = case;
        let mut rng = Rng64::new(seed);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let direct = matmul(&a, &b);
        prop_assert_eq!(&direct, &matmul_transb(&a, &b.transpose()), "({},{},{})", m, k, n);
        prop_assert_eq!(&direct, &matmul_transa(&a.transpose(), &b), "({},{},{})", m, k, n);
        assert_within_gamma_bound(&a, &b, &direct)?;
    }

    #[test]
    fn in_place_routes_match_each_elements_chain(case in route_shape()) {
        // Every route `matmul` can take — row dots, unpacked tiles, and
        // packing past `KC` — must equal each element's explicit chain and
        // the always-packing `Trans::A` engine, on both backends and at
        // thread limits 1 and 3.
        let (m, k, n, seed, specials) = case;
        let mut rng = Rng64::new(seed);
        let a = with_specials(m, k, &mut rng, specials);
        let b = with_specials(k, n, &mut rng, specials);
        let at = a.transpose();
        for backend in std::iter::once(Backend::Scalar).chain(Backend::detect_simd()) {
            let want = chain_reference(backend, &a, &b);
            let packed = gemm(backend, KernelDtype::F32, Trans::A, &at, &b);
            prop_assert!(same_bits(packed.data(), &want), "packed {backend:?} ({m},{k},{n})");
            for limit in [1, 3] {
                let prev = set_thread_limit(limit);
                let got = gemm(backend, KernelDtype::F32, Trans::No, &a, &b);
                set_thread_limit(prev);
                prop_assert!(same_bits(got.data(), &want), "{backend:?} ({m},{k},{n}) limit {limit}");
            }
        }
    }

    #[test]
    fn qr_reconstructs_and_orthogonal(a in matrix(16)) {
        let (q, r) = qr_thin(&a);
        prop_assert!(matmul(&q, &r).approx_eq(&a, 1e-3));
        prop_assert!(orthonormality_error(&q) < 1e-3);
    }

    #[test]
    fn svd_reconstruction_is_exact_at_full_rank(a in matrix(14)) {
        let svd = svd_jacobi(&a).unwrap();
        let err = a.sub(&svd.reconstruct()).unwrap().frobenius_norm();
        prop_assert!(err < 1e-3 * (1.0 + a.frobenius_norm()));
    }

    #[test]
    fn svd_singular_values_sorted(a in matrix(14)) {
        let svd = svd_jacobi(&a).unwrap();
        for w in svd.s.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-6);
        }
    }

    #[test]
    fn truncated_svd_error_is_monotone_in_rank(a in matrix(10)) {
        let maxk = a.rows().min(a.cols());
        let mut prev = f32::INFINITY;
        for k in 1..=maxk {
            let svd = truncated_svd(&a, k).unwrap();
            let err = a.sub(&svd.reconstruct()).unwrap().frobenius_norm();
            prop_assert!(err <= prev + 1e-3);
            prev = err;
        }
    }

    #[test]
    fn eckart_young_tail_energy(a in matrix(12)) {
        // Truncation error equals the energy of the discarded singular values.
        let full = svd_jacobi(&a).unwrap();
        let maxk = full.rank();
        let k = 1.max(maxk / 2);
        let trunc = full.truncate(k).unwrap();
        let err = a.sub(&trunc.reconstruct()).unwrap().frobenius_norm();
        let tail: f32 = full.s[k..].iter().map(|s| s * s).sum::<f32>().sqrt();
        prop_assert!((err - tail).abs() < 1e-2 * (1.0 + tail));
    }

    #[test]
    fn tucker2_error_bounded_by_one_for_centered_input(a in matrix(12)) {
        // ‖T − K‖ ≤ ε‖T‖ with ε ≤ 1 since K is the optimal projection.
        let dec = tucker2(&a, 1).unwrap();
        prop_assert!(dec.relative_error(&a) <= 1.0 + 1e-4);
    }

    #[test]
    fn tucker2_param_formula(a in matrix(16)) {
        let maxk = a.rows().min(a.cols());
        let k = 1.max(maxk / 3);
        let dec = tucker2(&a, k).unwrap();
        let (h, w) = (a.rows(), a.cols());
        prop_assert_eq!(dec.param_count(), h * k + k * k + k * w);
    }

    #[test]
    fn unfold_fold_roundtrip(t in tensor3(6)) {
        for mode in 0..3 {
            let u = t.unfold(mode);
            prop_assert_eq!(Tensor::fold(&u, mode, t.dims()), t.clone());
        }
    }

    #[test]
    fn mode_product_with_identity_is_noop(t in tensor3(6)) {
        for mode in 0..3 {
            let i = Tensor::eye(t.dims()[mode]);
            prop_assert!(mode_n_product(&t, &i, mode).approx_eq(&t, 1e-5));
        }
    }

    #[test]
    fn tucker_hoi_error_at_most_hosvd_bound(t in tensor3(5)) {
        // Tucker relative error is within [0, 1] and full rank is exact.
        let dims = t.dims().to_vec();
        let dec = tucker_hoi(&t, &dims, HoiOptions::default()).unwrap();
        prop_assert!(dec.relative_error(&t) < 1e-3);
        let ranks: Vec<usize> = dims.iter().map(|&d| 1.max(d / 2)).collect();
        let dec2 = tucker_hoi(&t, &ranks, HoiOptions::default()).unwrap();
        let e = dec2.relative_error(&t);
        prop_assert!((0.0..=1.0 + 1e-4).contains(&e));
    }

    #[test]
    fn scalar_and_simd_agree_on_adversarial_shapes(case in adversarial_shape()) {
        // Every transpose of the one entry point: the plain product may
        // read in place, the transposed ones always pack.
        let (m, k, n, seed) = case;
        let Some(simd) = Backend::detect_simd() else { return Ok(()) };
        let mut rng = Rng64::new(seed);
        for (trans, a_dims, b_dims) in [
            (Trans::No, [m, k], [k, n]),
            (Trans::A, [k, m], [k, n]),
            (Trans::B, [m, k], [n, k]),
        ] {
            let a = Tensor::randn(&a_dims, &mut rng);
            let b = Tensor::randn(&b_dims, &mut rng);
            let s = gemm(Backend::Scalar, KernelDtype::F32, trans, &a, &b);
            let v = gemm(simd, KernelDtype::F32, trans, &a, &b);
            let rel = s.sub(&v).unwrap().max_abs() / (1.0 + s.max_abs());
            prop_assert!(rel <= 1e-4, "{trans:?} ({m},{k},{n}) rel diff {rel}");
        }
    }

    #[test]
    fn scalar_and_simd_agree_on_transpose_variants(seed in any::<u64>()) {
        let Some(simd) = Backend::detect_simd() else { return Ok(()) };
        let mut rng = Rng64::new(seed);
        let a = Tensor::randn(&[9, 13], &mut rng);
        let b = Tensor::randn(&[11, 13], &mut rng);
        let s = gemm(Backend::Scalar, KernelDtype::F32, Trans::B, &a, &b);
        let v = gemm(simd, KernelDtype::F32, Trans::B, &a, &b);
        let rel = s.sub(&v).unwrap().max_abs() / (1.0 + s.max_abs());
        prop_assert!(rel <= 1e-4, "transb rel diff {rel}");
        let c = Tensor::randn(&[9, 17], &mut rng);
        let s = gemm(Backend::Scalar, KernelDtype::F32, Trans::A, &a, &c);
        let v = gemm(simd, KernelDtype::F32, Trans::A, &a, &c);
        let rel = s.sub(&v).unwrap().max_abs() / (1.0 + s.max_abs());
        prop_assert!(rel <= 1e-4, "transa rel diff {rel}");
    }

    #[test]
    fn repeated_runs_are_bit_identical(seed in any::<u64>()) {
        // Same binary, same inputs → identical bits, for every variant and
        // regardless of the thread budget (band splits must not change each
        // element's accumulation order).
        let mut rng = Rng64::new(seed);
        let a = Tensor::randn(&[70, 50], &mut rng);
        let b = Tensor::randn(&[50, 60], &mut rng);
        prop_assert_eq!(matmul(&a, &b), matmul(&a, &b));
        let bt = Tensor::randn(&[60, 50], &mut rng);
        prop_assert_eq!(matmul_transb(&a, &bt), matmul_transb(&a, &bt));
        let c = Tensor::randn(&[70, 40], &mut rng);
        prop_assert_eq!(matmul_transa(&a, &c), matmul_transa(&a, &c));
        let prev = set_thread_limit(1);
        let serial = matmul(&a, &b);
        set_thread_limit(3);
        let banded = matmul(&a, &b);
        set_thread_limit(prev);
        prop_assert_eq!(serial, banded);
    }

    #[test]
    fn fused_factored_is_bit_identical_to_unfused_f32(case in factored_shape()) {
        // The fused pipeline reuses the unfused loop nest's accumulation
        // order exactly, so at f32 storage the results must match to the
        // bit — per call and through a reused plan. The unfused baseline
        // pins f32 explicitly so this holds under LRD_KERNEL_DTYPE overrides.
        let (shape, seed) = case;
        let backend = Backend::active();
        let (x, u1, core, u2) = factored_operands(shape, seed);
        let h1 = gemm(backend, KernelDtype::F32, Trans::No, &x, &u1);
        let h2 = gemm(backend, KernelDtype::F32, Trans::No, &h1, &core);
        let unfused = gemm(backend, KernelDtype::F32, Trans::No, &h2, &u2);
        let fused = factored_matmul_with(backend, KernelDtype::F32, &x, &u1, &core, &u2);
        prop_assert_eq!(&unfused, &fused, "shape {:?}", shape);
        let plan = FactoredPlan::with_dtype(KernelDtype::F32, &u1, &core, &u2);
        prop_assert_eq!(&unfused, &plan.matmul_on(backend, &x), "plan, shape {:?}", shape);
    }

    #[test]
    fn fused_low_precision_within_documented_tolerance(case in factored_shape()) {
        // 16-bit B-panel storage rounds each factor once; the bounds here
        // are the ones DESIGN.md §12 documents (bf16: 8 mantissa bits,
        // f16: 11).
        let (shape, seed) = case;
        let backend = Backend::active();
        let (x, u1, core, u2) = factored_operands(shape, seed);
        let h1 = gemm(backend, KernelDtype::F32, Trans::No, &x, &u1);
        let h2 = gemm(backend, KernelDtype::F32, Trans::No, &h1, &core);
        let exact = gemm(backend, KernelDtype::F32, Trans::No, &h2, &u2);
        for (dtype, tol) in [(KernelDtype::Bf16, 5e-2), (KernelDtype::F16, 1e-2)] {
            let fused = factored_matmul_with(backend, dtype, &x, &u1, &core, &u2);
            let rel = exact.sub(&fused).unwrap().max_abs() / (1.0 + exact.max_abs());
            prop_assert!(rel <= tol, "{} shape {:?} rel diff {rel}", dtype.name(), shape);
        }
    }

    #[test]
    fn fused_scalar_and_simd_agree(case in factored_shape()) {
        let (shape, seed) = case;
        let Some(simd) = Backend::detect_simd() else { return Ok(()) };
        let (x, u1, core, u2) = factored_operands(shape, seed);
        let s = factored_matmul_with(Backend::Scalar, KernelDtype::F32, &x, &u1, &core, &u2);
        let v = factored_matmul_with(simd, KernelDtype::F32, &x, &u1, &core, &u2);
        let rel = s.sub(&v).unwrap().max_abs() / (1.0 + s.max_abs());
        prop_assert!(rel <= 1e-4, "shape {:?} rel diff {rel}", shape);
    }

    #[test]
    fn fused_is_bit_identical_across_thread_counts(case in factored_shape()) {
        // Band splits must not change any element's accumulation order —
        // the same invariant `repeated_runs_are_bit_identical` pins for the
        // classic entry points, here for the fused pipeline at the active
        // storage dtype (so the bf16/f16 CI variants exercise it too).
        let (shape, seed) = case;
        let backend = Backend::active();
        let dtype = KernelDtype::active();
        let (x, u1, core, u2) = factored_operands(shape, seed);
        let prev = set_thread_limit(1);
        let serial = factored_matmul_with(backend, dtype, &x, &u1, &core, &u2);
        set_thread_limit(3);
        let banded = factored_matmul_with(backend, dtype, &x, &u1, &core, &u2);
        let plan = FactoredPlan::with_dtype(dtype, &u1, &core, &u2);
        let planned = plan.matmul_on(backend, &x);
        set_thread_limit(prev);
        prop_assert_eq!(&serial, &banded, "shape {:?}", shape);
        prop_assert_eq!(&serial, &planned, "plan, shape {:?}", shape);
    }

    #[test]
    fn frobenius_norm_is_unitarily_invariant(a in matrix(10)) {
        // Multiplying by an orthonormal factor preserves the norm.
        let (q, _) = qr_thin(&a);
        let prod = matmul(&q.transpose(), &a);
        prop_assert!((prod.frobenius_norm() - matmul(&q, &prod).frobenius_norm()).abs()
            < 1e-3 * (1.0 + a.frobenius_norm()));
    }
}
