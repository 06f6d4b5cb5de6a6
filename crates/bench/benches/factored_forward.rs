//! Dense vs factored linear forward — the deployment-side ablation: at
//! which rank does the three-GEMM factored form stop paying off?

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lrd_nn::linear::{FactoredLinear, Linear};
use lrd_tensor::dtype::KernelDtype;
use lrd_tensor::kernel::Backend;
use lrd_tensor::matmul::{factored_matmul_with, matmul, FactoredPlan};
use lrd_tensor::rng::Rng64;
use lrd_tensor::tucker::tucker2;
use lrd_tensor::Tensor;
use std::hint::black_box;

fn bench_dense_vs_factored(c: &mut Criterion) {
    let mut rng = Rng64::new(4);
    let dense = Linear::new(256, 256, false, &mut rng);
    let x = Tensor::randn(&[128, 256], &mut rng);

    let mut group = c.benchmark_group("linear_forward_256");
    group.bench_function("dense", |b| b.iter(|| dense.infer(black_box(&x))));
    for rank in [1usize, 16, 64, 128, 256] {
        let fac = FactoredLinear::from_tucker(tucker2(&dense.w.value, rank).unwrap(), None);
        group.bench_with_input(BenchmarkId::new("factored", rank), &rank, |b, _| {
            b.iter(|| fac.infer(black_box(&x)));
        });
    }
    group.finish();
}

fn bench_fused_vs_unfused(c: &mut Criterion) {
    // The fused factored-GEMM pipeline against the three-matmul
    // composition it replaces, across ranks and kernel dtypes. `m = 8` is
    // the decode/small-batch regime where fusion pays most (per-call
    // factor packing and intermediate tensors dominate the unfused path);
    // `m = 128` is prefill, where both paths are compute-bound.
    let backend = Backend::active();
    let mut rng = Rng64::new(6);
    for m in [8usize, 128] {
        let x = Tensor::randn(&[m, 256], &mut rng);
        let mut group = c.benchmark_group(&format!("factored_matmul_{m}x256"));
        for rank in [16usize, 64] {
            let u1 = Tensor::randn(&[256, rank], &mut rng);
            let core = Tensor::randn(&[rank, rank], &mut rng);
            let u2 = Tensor::randn(&[rank, 256], &mut rng);
            group.bench_with_input(BenchmarkId::new("unfused", rank), &rank, |b, _| {
                b.iter(|| {
                    let h1 = matmul(black_box(&x), &u1);
                    let h2 = matmul(&h1, &core);
                    matmul(&h2, &u2)
                });
            });
            for dtype in [KernelDtype::F32, KernelDtype::Bf16, KernelDtype::F16] {
                let id = format!("fused_{}", dtype.name());
                group.bench_with_input(BenchmarkId::new(id, rank), &rank, |b, _| {
                    b.iter(|| factored_matmul_with(backend, dtype, black_box(&x), &u1, &core, &u2));
                });
                // Factors prepacked once — the deployment regime.
                let plan = FactoredPlan::with_dtype(dtype, &u1, &core, &u2);
                let id = format!("plan_{}", dtype.name());
                group.bench_with_input(BenchmarkId::new(id, rank), &rank, |b, _| {
                    b.iter(|| plan.matmul_on(backend, black_box(&x)));
                });
            }
        }
        group.finish();
    }
}

fn bench_rank1_served(c: &mut Criterion) {
    // Rank-1 factored layers at the served model's shapes (d_model 40,
    // d_ff 112): decode batches of 1, 13 and 32 rows and a 1024-row
    // prefill batch. The `x·U1` and `h1·Γ` stages are one column wide.
    let mut rng = Rng64::new(7);
    let mut group = c.benchmark_group("factored_rank1_served");
    for m in [1usize, 13, 32, 1024] {
        for (k, n) in [(40usize, 40usize), (40, 112), (112, 40)] {
            let dense = Linear::new(k, n, false, &mut rng);
            let fac = FactoredLinear::from_tucker(tucker2(&dense.w.value, 1).unwrap(), None);
            let x = Tensor::randn(&[m, k], &mut rng);
            group.bench_function(format!("{k}x{n}/m{m}"), |b| {
                b.iter(|| fac.infer(black_box(&x)));
            });
        }
    }
    group.finish();
}

fn bench_backward(c: &mut Criterion) {
    let mut rng = Rng64::new(5);
    let dense = Linear::new(128, 128, false, &mut rng);
    let fac = FactoredLinear::from_tucker(tucker2(&dense.w.value, 4).unwrap(), None);
    let x = Tensor::randn(&[64, 128], &mut rng);
    let dy = Tensor::randn(&[64, 128], &mut rng);
    let mut group = c.benchmark_group("linear_backward_128");
    group.bench_function("dense", |b| {
        b.iter_batched(
            || dense.clone(),
            |mut l| {
                black_box(l.infer(black_box(&x)));
                l.backward(black_box(&x), black_box(&dy))
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.bench_function("factored_rank4", |b| {
        b.iter_batched(
            || fac.clone(),
            |mut l| {
                black_box(l.infer(black_box(&x)));
                l.backward(black_box(&x), black_box(&dy))
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dense_vs_factored,
    bench_fused_vs_unfused,
    bench_rank1_served,
    bench_backward
);
criterion_main!(benches);
