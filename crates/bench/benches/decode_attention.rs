//! Decode attention at the served tiny-Llama's head shape (4 heads of 10):
//! one `decode_step_many` over `batch` sessions whose caches hold
//! `context − 1` positions, so the step pushes one position and attends
//! over `context`. The step includes the q/k/v/o projections and RoPE,
//! as in serving. Plus the cost of filling one cache with pushes, and the
//! prefill kernel on one causal sequence of the same head shape at the
//! lengths eval scores: HellaSwag's 5 and 7 tokens, GSM8K's 53, and 48.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use lrd_nn::attention::{KvCache, MultiHeadAttention};
use lrd_tensor::attention::{prefill_attention, prefill_scratch_len, SERVED};
use lrd_tensor::kernel::Backend;
use lrd_tensor::rng::Rng64;
use lrd_tensor::Tensor;
use std::hint::black_box;

const D_MODEL: usize = 40;
const HEADS: usize = 4;
const MAX_SEQ: usize = 64;

/// A fresh cache (full reservation, as serving allocates it) holding
/// `rows.len()` positions.
fn filled(rows: &[Vec<f32>]) -> KvCache {
    let mut c = KvCache::with_bounds(MAX_SEQ, D_MODEL);
    for row in rows {
        c.push(row, row).expect("within max_seq");
    }
    c
}

fn bench_decode_attention(c: &mut Criterion) {
    let mut rng = Rng64::new(18);
    let attn = MultiHeadAttention::new(D_MODEL, HEADS, HEADS, MAX_SEQ, true, true, false, &mut rng);
    let mut group = c.benchmark_group("decode_attention");
    for context in [8usize, 24, 48, 63] {
        let rows: Vec<Vec<f32>> = (0..context - 1)
            .map(|_| Tensor::randn(&[1, D_MODEL], &mut rng).data().to_vec())
            .collect();
        for batch in [1usize, 13, 32] {
            let x = Tensor::randn(&[batch, D_MODEL], &mut rng);
            let positions = vec![context - 1; batch];
            let id = BenchmarkId::new(format!("ctx{context}"), format!("b{batch}"));
            group.bench_function(id, |b| {
                b.iter_batched(
                    || (0..batch).map(|_| filled(&rows)).collect::<Vec<_>>(),
                    |mut caches| {
                        let mut refs: Vec<&mut KvCache> = caches.iter_mut().collect();
                        let out = attn
                            .decode_step_many(black_box(&x), &positions, &mut refs)
                            .expect("decode step");
                        (out, caches)
                    },
                    BatchSize::SmallInput,
                );
            });
        }
    }
    group.finish();
}

fn bench_push(c: &mut Criterion) {
    let mut rng = Rng64::new(19);
    let rows: Vec<Vec<f32>> = (0..MAX_SEQ)
        .map(|_| Tensor::randn(&[1, D_MODEL], &mut rng).data().to_vec())
        .collect();
    let mut group = c.benchmark_group("decode_attention");
    group.bench_function(format!("push_{MAX_SEQ}x{D_MODEL}"), |b| {
        b.iter_batched(
            || KvCache::with_bounds(MAX_SEQ, D_MODEL),
            |mut cache| {
                for row in &rows {
                    cache.push(black_box(row), row).expect("within max_seq");
                }
                cache
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// One `prefill_attention` call: every head of a causal `seq`-token
/// sequence, on the active backend.
fn bench_prefill(c: &mut Criterion) {
    let mut rng = Rng64::new(20);
    let mut group = c.benchmark_group("prefill_attention");
    for seq in [5usize, 7, 53, 48] {
        let rows = |rng: &mut Rng64| Tensor::randn(&[seq, D_MODEL], rng).data().to_vec();
        let (q, k, v) = (rows(&mut rng), rows(&mut rng), rows(&mut rng));
        let mut scratch = vec![0.0; prefill_scratch_len(SERVED, seq)];
        let mut ctx = vec![0.0; seq * D_MODEL];
        group.bench_function(format!("seq{seq}"), |b| {
            b.iter(|| {
                prefill_attention(
                    Backend::active(),
                    SERVED,
                    true,
                    seq,
                    black_box(&q),
                    &k,
                    &v,
                    &mut scratch,
                    &mut ctx,
                    None,
                );
                black_box(ctx[0])
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decode_attention, bench_push, bench_prefill);
criterion_main!(benches);
