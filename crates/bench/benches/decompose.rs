//! Whole-model decomposition throughput: how long it takes to factor a
//! trained model at the paper's operating points, the per-call cost of
//! the Jacobi SVD at the served tiny-Llama's weight shapes and over all
//! 224 of its weights, plus the simulated efficiency sweep itself.

use criterion::{criterion_group, criterion_main, Criterion};
use lrd_bench::MODEL_SEED;
use lrd_core::decompose::decompose_model;
use lrd_core::space::DecompositionConfig;
use lrd_core::study::efficiency_sweep;
use lrd_hwsim::device::SystemSpec;
use lrd_models::tiny::build_tiny_llama;
use lrd_models::zoo::llama2_7b;
use lrd_nn::{ArchKind, TransformerConfig, TransformerLm};
use lrd_tensor::rng::Rng64;
use lrd_tensor::svd::svd_jacobi;
use lrd_tensor::Tensor;
use std::hint::black_box;

fn model() -> TransformerLm {
    let cfg = TransformerConfig {
        kind: ArchKind::Decoder,
        vocab_size: 64,
        d_model: 32,
        n_layers: 8,
        n_heads: 4,
        n_kv_heads: 4,
        d_ff: 96,
        max_seq: 32,
    };
    TransformerLm::new(cfg, &mut Rng64::new(3))
}

fn bench_decompose_model(c: &mut Criterion) {
    let base = model();
    let all_t: Vec<usize> = (0..7).collect();
    let mut group = c.benchmark_group("decompose_model_8layer");
    for (label, layers) in [
        ("2_layers", vec![1usize, 6]),
        ("8_layers", (0..8).collect::<Vec<_>>()),
    ] {
        let cfg = DecompositionConfig::uniform(&layers, &all_t, 1);
        group.bench_function(label, |b| {
            b.iter_batched(
                || base.clone(),
                |mut m| decompose_model(&mut m, black_box(&cfg)).unwrap(),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// One `svd_jacobi` call at each weight shape the served tiny-Llama
/// decomposes: attention 40×40, MLP gate/up 112×40 and down 40×112. Then
/// one call per weight of the untrained `build_tiny_llama(MODEL_SEED)`,
/// all 224 per iteration: the SVDs a cold Table-4 sweep computes.
fn bench_svd_jacobi(c: &mut Criterion) {
    let mut rng = Rng64::new(17);
    let mut group = c.benchmark_group("svd_jacobi");
    for (m, n) in [(40, 40), (112, 40), (40, 112)] {
        let a = Tensor::randn(&[m, n], &mut rng).scale(0.05);
        group.bench_function(format!("{m}x{n}"), |b| {
            b.iter(|| svd_jacobi(black_box(&a)).unwrap());
        });
    }
    let mut model = build_tiny_llama(MODEL_SEED);
    let weights: Vec<Tensor> = model
        .visit_linears()
        .into_iter()
        .map(|(_, _, slot)| slot.effective_weight())
        .collect();
    group.bench_function(format!("tiny_llama_{}", weights.len()), |b| {
        b.iter(|| {
            for w in &weights {
                black_box(svd_jacobi(black_box(w)).unwrap());
            }
        });
    });
    group.finish();
}

fn bench_efficiency_sweep(c: &mut Criterion) {
    let sys = SystemSpec::quad_a100();
    let desc = llama2_7b();
    c.bench_function("efficiency_sweep_table4", |b| {
        b.iter(|| efficiency_sweep(black_box(&sys), black_box(&desc), 64, 128));
    });
}

criterion_group!(
    benches,
    bench_decompose_model,
    bench_svd_jacobi,
    bench_efficiency_sweep
);
criterion_main!(benches);
