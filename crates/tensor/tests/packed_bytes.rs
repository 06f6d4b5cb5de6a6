//! `tensor.gemm_bytes_packed` accounting for the in-place GEMM route.
//!
//! The counter is process-global, so this binary holds a single test: no
//! other GEMM runs concurrently and moves it between the two reads.

use lrd_tensor::dtype::KernelDtype;
use lrd_tensor::kernel::Backend;
use lrd_tensor::matmul::{factored_matmul_with, matmul, KC, MC, NC};
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

    // Dense: a decode projection and products on each in-place bound
    // (`MC` rows, `KC` depth, `NC` columns, `m·n = 32·NC`) pack nothing;
    // one row, one k-step, one column or one `m·n` row past a bound packs.
    // Every shape stays under the threading threshold, so it runs as one
    // band and the route is decided on the whole product.
    for (m, k, n) in [(32, 40, 112), (MC, 8, 256), (3, KC, NC), (32, 8, NC)] {
        let (a, b) = (randn(m, k), randn(k, n));
        assert_eq!(packed_by(|| drop(matmul(&a, &b))), 0, "({m},{k},{n})");
    }
    for (m, k, n) in [
        (MC + 1, 40, 40),
        (8, KC + 1, 40),
        (8, 40, NC + 1),
        (33, 8, NC),
    ] {
        let (a, b) = (randn(m, k), randn(k, n));
        assert!(packed_by(|| drop(matmul(&a, &b))) > 0, "({m},{k},{n})");
    }

    // Factored at f32: a rank-1 decode product reads its factors in place;
    // `k > KC` makes the first stage multi-block, so all three are packed.
    let fused = |m: usize, k: usize, r: usize, n: usize, rng: &mut Rng64| {
        let [x, u1, core, u2] = [[m, k], [k, r], [r, r], [r, n]].map(|d| Tensor::randn(&d, rng));
        packed_by(|| {
            factored_matmul_with(backend, KernelDtype::F32, &x, &u1, &core, &u2);
        })
    };
    let mut rng = Rng64::new(8);
    assert_eq!(fused(32, 40, 1, 112, &mut rng), 0);
    assert!(fused(8, KC + 1, 4, 40, &mut rng) > 0);
}
