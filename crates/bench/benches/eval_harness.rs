//! Evaluation-harness throughput: multiple-choice scoring and greedy exact
//! match (teacher-forced, through the same batched loop) on a small
//! decoder, and multiple-choice scoring at the Table-4 sweep's shape.

use criterion::{criterion_group, criterion_main, Criterion};
use lrd_eval::harness::{evaluate, EvalOptions};
use lrd_eval::sample::Benchmark;
use lrd_eval::tasks::{ArcEasy, Gsm8k, HellaSwag};
use lrd_eval::vocab;
use lrd_eval::World;
use lrd_nn::{ArchKind, TransformerConfig, TransformerLm};
use lrd_tensor::rng::Rng64;
use std::hint::black_box;

fn model() -> TransformerLm {
    let cfg = TransformerConfig {
        kind: ArchKind::Decoder,
        vocab_size: vocab::VOCAB_SIZE,
        d_model: 32,
        n_layers: 4,
        n_heads: 4,
        n_kv_heads: 4,
        d_ff: 96,
        max_seq: 64,
    };
    TransformerLm::new(cfg, &mut Rng64::new(8))
}

fn bench_multiple_choice(c: &mut Criterion) {
    let m = model();
    let w = World::new(1);
    let opts = EvalOptions {
        n_samples: 40,
        seed: 5,
        batch_size: 64,
        threads: 0,
    };
    c.bench_function("evaluate_arc_easy_40", |b| {
        b.iter(|| evaluate(black_box(&m), &ArcEasy, &w, &opts));
    });
}

fn bench_exact_match(c: &mut Criterion) {
    let m = model();
    let w = World::new(1);
    let opts = EvalOptions {
        n_samples: 8,
        seed: 5,
        batch_size: 8,
        threads: 0,
    };
    c.bench_function("evaluate_gsm8k_8", |b| {
        b.iter(|| evaluate(black_box(&m), &Gsm8k, &w, &opts));
    });
}

/// One benchmark of a sweep point: the 32-layer tiny-Llama widths and 8
/// samples at batch 64, for 1-token choices (ArcEasy) and 3-token choices
/// (HellaSwag).
fn bench_multiple_choice_sweep_shape(c: &mut Criterion) {
    let m = TransformerLm::new(TransformerConfig::tiny_llama(), &mut Rng64::new(8));
    let w = World::new(1);
    let opts = EvalOptions {
        n_samples: 8,
        seed: 3,
        batch_size: 64,
        threads: 0,
    };
    let mut group = c.benchmark_group("multiple_choice_tiny_llama_8");
    let benches: [(&str, &dyn Benchmark); 2] = [("arc_easy", &ArcEasy), ("hellaswag", &HellaSwag)];
    for (name, bench) in benches {
        group.bench_function(name, |b| {
            b.iter(|| evaluate(black_box(&m), bench, &w, &opts));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_multiple_choice,
    bench_exact_match,
    bench_multiple_choice_sweep_shape
);
criterion_main!(benches);
