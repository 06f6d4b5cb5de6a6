//! `tensor.gemm_bytes_packed` accounting for the in-place GEMM route.
//!
//! The counter is process-global, so this binary holds a single test: no
//! other GEMM runs concurrently and moves it between the two reads.

use lrd_tensor::dtype::KernelDtype;
use lrd_tensor::kernel::Backend;
use lrd_tensor::matmul::{factored_matmul_with, gemm, matmul, Trans, KC, MC, NC};
use lrd_tensor::rng::Rng64;
use lrd_tensor::Tensor;
use lrd_trace::counters::{self, Counter};

/// Bytes packed while `f` runs.
fn packed_by(f: impl FnOnce()) -> u64 {
    let before = counters::get(Counter::GemmBytesPacked);
    f();
    counters::get(Counter::GemmBytesPacked) - before
}

#[test]
fn in_place_products_pack_nothing_and_larger_ones_pack() {
    if !lrd_trace::enabled() {
        return;
    }
    let mut rng = Rng64::new(7);
    let backend = Backend::active();
    let mut randn = |m: usize, n: usize| Tensor::randn(&[m, n], &mut rng);

    // Dense: a decode projection, a prefill product and products on each
    // in-place bound (`KC` depth, `NC` columns, `m·n = 32·NC` per `MC`-row
    // chunk) pack nothing, at any height; one k-step, one column or one
    // `m·n` row past a bound packs. The route is decided per `MC`-row
    // chunk, so threaded bands take it as the whole product does.
    for (m, k, n) in [
        (32, 40, 112),
        (1024, 40, 112),
        (MC + 1, 40, 40),
        (MC, 8, 256),
        (3, KC, NC),
        (32, 8, NC),
    ] {
        let (a, b) = (randn(m, k), randn(k, n));
        assert_eq!(packed_by(|| drop(matmul(&a, &b))), 0, "({m},{k},{n})");
    }
    for (m, k, n) in [
        (8, KC + 1, 40),
        (8, 40, NC + 1),
        (33, 8, NC),
        (MC + 1, 8, NC),
    ] {
        let (a, b) = (randn(m, k), randn(k, n));
        assert!(packed_by(|| drop(matmul(&a, &b))) > 0, "({m},{k},{n})");
    }
    // 16-bit panels always pack, even where `f32` reads in place.
    let (a, b) = (randn(32, 40), randn(40, 112));
    for dtype in [KernelDtype::Bf16, KernelDtype::F16] {
        let packed = packed_by(|| drop(gemm(backend, dtype, Trans::No, &a, &b)));
        assert!(packed > 0, "{dtype:?}");
    }

    // Factored at f32: rank-1 decode and prefill products read their
    // factors in place; `k > KC` makes the first stage multi-block and
    // bf16 panels pack, so all three factors are packed.
    let fused = |dtype, [m, k, r, n]: [usize; 4], rng: &mut Rng64| {
        let [x, u1, core, u2] = [[m, k], [k, r], [r, r], [r, n]].map(|d| Tensor::randn(&d, rng));
        packed_by(|| {
            factored_matmul_with(backend, dtype, &x, &u1, &core, &u2);
        })
    };
    let mut rng = Rng64::new(8);
    assert_eq!(fused(KernelDtype::F32, [32, 40, 1, 112], &mut rng), 0);
    assert_eq!(fused(KernelDtype::F32, [1024, 40, 1, 112], &mut rng), 0);
    assert_eq!(fused(KernelDtype::F32, [1024, 112, 1, 40], &mut rng), 0);
    assert!(fused(KernelDtype::F32, [8, KC + 1, 4, 40], &mut rng) > 0);
    assert!(fused(KernelDtype::Bf16, [1024, 40, 1, 112], &mut rng) > 0);
}
