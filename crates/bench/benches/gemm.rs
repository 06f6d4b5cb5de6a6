//! GEMM kernel throughput (the substrate all forward passes stand on).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lrd_tensor::dtype::KernelDtype;
use lrd_tensor::kernel::Backend;
use lrd_tensor::matmul::{
    batched_matmul, factored_matmul, matmul, matmul_transa, matmul_transb, matmul_with, matvec,
    matvec_transb,
};
use lrd_tensor::rng::Rng64;
use lrd_tensor::Tensor;
use std::hint::black_box;

fn bench_square(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_square");
    for n in [64usize, 128, 256] {
        let mut rng = Rng64::new(n as u64);
        let a = Tensor::randn(&[n, n], &mut rng);
        let b = Tensor::randn(&[n, n], &mut rng);
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| matmul(black_box(&a), black_box(&b)));
        });
    }
    group.finish();
}

fn bench_square_dtypes(c: &mut Criterion) {
    // The same 256³ GEMM with the B panels stored at each kernel dtype —
    // the storage-precision axis of the mixed-precision backends.
    let backend = Backend::active();
    let n = 256usize;
    let mut rng = Rng64::new(n as u64);
    let a = Tensor::randn(&[n, n], &mut rng);
    let b = Tensor::randn(&[n, n], &mut rng);
    let mut group = c.benchmark_group("gemm_square_dtype_256");
    group.throughput(Throughput::Elements((2 * n * n * n) as u64));
    for dtype in [KernelDtype::F32, KernelDtype::Bf16, KernelDtype::F16] {
        group.bench_with_input(
            BenchmarkId::from_parameter(dtype.name()),
            &dtype,
            |bch, &d| {
                bch.iter(|| matmul_with(backend, d, black_box(&a), black_box(&b)));
            },
        );
    }
    group.finish();
}

fn bench_token_shapes(c: &mut Criterion) {
    // The shapes the evaluation pipeline actually runs: tokens × d_model.
    let mut rng = Rng64::new(9);
    let x = Tensor::randn(&[768, 40], &mut rng);
    let w = Tensor::randn(&[40, 112], &mut rng);
    let mut group = c.benchmark_group("gemm_transformer_shapes");
    group.bench_function("768x40_x_40x112", |b| {
        b.iter(|| matmul(black_box(&x), black_box(&w)));
    });
    let wt = Tensor::randn(&[112, 40], &mut rng);
    group.bench_function("transb_768x40_x_112x40", |b| {
        b.iter(|| matmul_transb(black_box(&x), black_box(&wt)));
    });
    // The fine-tuning-recovery shape: dW = xᵀ · dy.
    let dy = Tensor::randn(&[768, 112], &mut rng);
    group.bench_function("transa_768x40_x_768x112", |b| {
        b.iter(|| matmul_transa(black_box(&x), black_box(&dy)));
    });
    // Single-token decode: matrix–vector against the LM head shape.
    let head = Tensor::randn(&[112, 40], &mut rng);
    let v: Vec<f32> = (0..40).map(|i| (i as f32 * 0.17).sin()).collect();
    group.bench_function("matvec_112x40", |b| {
        b.iter(|| matvec(black_box(&head), black_box(&v)));
    });
    // Decode against the weight as stored (k×n): aᵀ·x without
    // materializing the transpose.
    let wkn = Tensor::randn(&[40, 112], &mut rng);
    group.bench_function("matvec_transb_40x112", |b| {
        b.iter(|| matvec_transb(black_box(&wkn), black_box(&v)));
    });
    group.finish();
}

fn bench_decode_shapes(c: &mut Criterion) {
    // The products one serve pass runs, all read in place without packing:
    // tiny_llama's projection slots (d_model 40, d_ff 112) and its 40×256
    // lm_head at decode batch heights, dense and as rank-1 factored
    // products. Then the largest one-block weights (k = KC = 256, n = 256
    // and NC = 1024) at m = 32 and m = MC = 120, on both sides of the
    // route's `m·n ≤ 32·NC` bound.
    let mut rng = Rng64::new(11);
    let mut group = c.benchmark_group("gemm_decode_shapes");
    for m in [1usize, 13, 32] {
        for (k, n) in [(40usize, 40usize), (40, 112), (112, 40), (40, 256)] {
            let x = Tensor::randn(&[m, k], &mut rng);
            let w = Tensor::randn(&[k, n], &mut rng);
            group.bench_function(format!("dense_{k}x{n}/m{m}"), |b| {
                b.iter(|| matmul(black_box(&x), black_box(&w)));
            });
            let u1 = Tensor::randn(&[k, 1], &mut rng);
            let core = Tensor::randn(&[1, 1], &mut rng);
            let u2 = Tensor::randn(&[1, n], &mut rng);
            group.bench_function(format!("rank1_{k}x{n}/m{m}"), |b| {
                b.iter(|| factored_matmul(black_box(&x), &u1, &core, &u2));
            });
        }
    }
    for m in [32usize, 120] {
        for n in [256usize, 1024] {
            let x = Tensor::randn(&[m, 256], &mut rng);
            let w = Tensor::randn(&[256, n], &mut rng);
            group.bench_function(format!("dense_256x{n}/m{m}"), |b| {
                b.iter(|| matmul(black_box(&x), black_box(&w)));
            });
        }
    }
    group.finish();
}

fn bench_batched(c: &mut Criterion) {
    let mut rng = Rng64::new(10);
    let a = Tensor::randn(&[64, 24, 10], &mut rng);
    let b = Tensor::randn(&[64, 10, 24], &mut rng);
    c.bench_function("batched_matmul_64x24x10x24", |bch| {
        bch.iter(|| batched_matmul(black_box(&a), black_box(&b)));
    });
}

criterion_group!(
    benches,
    bench_square,
    bench_square_dtypes,
    bench_token_shapes,
    bench_decode_shapes,
    bench_batched
);
criterion_main!(benches);
