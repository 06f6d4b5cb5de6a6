//! Property-based tests for the transformer stack.

use lrd_nn::act::{cross_entropy, log_softmax_rows, softmax_rows, swiglu, swiglu_backward};
use lrd_nn::linear::{AnyLinear, FactoredLinear, Linear};
use lrd_nn::norm::{LayerNorm, RmsNorm};
use lrd_nn::rope::Rope;
use lrd_nn::{ArchKind, TransformerConfig, TransformerLm};
use lrd_tensor::exp::exp_matches_f32_exp;
use lrd_tensor::rng::Rng64;
use lrd_tensor::tucker::tucker2;
use lrd_tensor::Tensor;
use proptest::prelude::*;

fn small_cfg(n_layers: usize, d_model: usize, vocab: usize) -> TransformerConfig {
    TransformerConfig {
        kind: ArchKind::Decoder,
        vocab_size: vocab,
        d_model,
        n_layers,
        n_heads: 2,
        n_kv_heads: 2,
        d_ff: d_model * 2,
        max_seq: 16,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn model_logits_shape_for_any_tokens(
        seed in any::<u64>(),
        n_layers in 1usize..3,
        seq in 1usize..8,
        batch in 1usize..3,
    ) {
        let cfg = small_cfg(n_layers, 8, 32);
        let model = TransformerLm::new(cfg, &mut Rng64::new(seed));
        let mut rng = Rng64::new(seed ^ 1);
        let tokens: Vec<usize> = (0..batch * seq).map(|_| rng.below(32)).collect();
        let logits = model.logits(&tokens, batch);
        prop_assert_eq!(logits.dims(), &[batch * seq, 32]);
        prop_assert!(logits.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn factored_equals_dense_at_full_rank_any_shape(
        seed in any::<u64>(),
        fan_in in 2usize..12,
        fan_out in 2usize..12,
    ) {
        let mut rng = Rng64::new(seed);
        let dense = Linear::new(fan_in, fan_out, false, &mut rng);
        let rank = fan_in.min(fan_out);
        let fac = FactoredLinear::from_tucker(
            tucker2(&dense.w.value, rank).unwrap(),
            None,
        );
        let x = Tensor::randn(&[3, fan_in], &mut rng);
        let d = dense.infer(&x).sub(&fac.infer(&x)).unwrap().max_abs();
        // 16-bit B-panel storage rounds W once on the dense path but three
        // panels on the factored path; the sides match only to the storage
        // bound there, not to f32 accuracy.
        let tol = match lrd_tensor::dtype::KernelDtype::active() {
            lrd_tensor::dtype::KernelDtype::F32 => 1e-2,
            _ => 8e-2,
        };
        prop_assert!(d < tol, "full-rank mismatch {d}");
    }

    #[test]
    fn factored_param_count_below_dense_at_rank_1(
        fan_in in 3usize..64,
        fan_out in 3usize..64,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::new(seed);
        let dense = Linear::new(fan_in, fan_out, false, &mut rng);
        let fac = FactoredLinear::from_tucker(tucker2(&dense.w.value, 1).unwrap(), None);
        // Rank 1 is always below break-even for dims ≥ 3.
        prop_assert!(fac.param_count() < dense.param_count());
    }

    #[test]
    fn softmax_rows_are_distributions(seed in any::<u64>(), m in 1usize..6, n in 2usize..10) {
        let mut rng = Rng64::new(seed);
        let x = Tensor::randn_scaled(&[m, n], 5.0, &mut rng);
        let p = softmax_rows(&x);
        for i in 0..m {
            let s: f32 = p.row(i).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            prop_assert!(p.row(i).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn log_softmax_is_log_of_softmax(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let x = Tensor::randn(&[2, 6], &mut rng);
        let p = softmax_rows(&x);
        let lp = log_softmax_rows(&x);
        for i in 0..x.len() {
            prop_assert!((lp.data()[i].exp() - p.data()[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn cross_entropy_nonnegative_and_bounded(seed in any::<u64>(), v in 2usize..12) {
        let mut rng = Rng64::new(seed);
        let logits = Tensor::randn_scaled(&[3, v], 2.0, &mut rng);
        let targets: Vec<usize> = (0..3).map(|_| rng.below(v)).collect();
        let (loss, grad) = cross_entropy(&logits, &targets);
        prop_assert!(loss >= 0.0);
        // Gradient rows sum to ~0 (softmax minus one-hot, scaled).
        for i in 0..3 {
            let s: f32 = grad.row(i).iter().sum();
            prop_assert!(s.abs() < 1e-4);
        }
    }

    #[test]
    fn layernorm_output_standardized(seed in any::<u64>(), d in 4usize..32) {
        let mut rng = Rng64::new(seed);
        let ln = LayerNorm::new(d);
        let x = Tensor::randn_scaled(&[3, d], 4.0, &mut rng);
        let (y, _) = ln.forward(&x);
        for i in 0..3 {
            let mean: f32 = y.row(i).iter().sum::<f32>() / d as f32;
            prop_assert!(mean.abs() < 1e-3);
        }
    }

    #[test]
    fn rmsnorm_output_unit_rms(seed in any::<u64>(), d in 4usize..32) {
        let mut rng = Rng64::new(seed);
        let rn = RmsNorm::new(d);
        let x = Tensor::randn_scaled(&[2, d], 3.0, &mut rng);
        let (y, _) = rn.forward(&x);
        for i in 0..2 {
            let ms: f32 = y.row(i).iter().map(|&v| v * v).sum::<f32>() / d as f32;
            prop_assert!((ms - 1.0).abs() < 0.05, "rms² {ms}");
        }
    }

    #[test]
    fn rope_preserves_norm_at_any_position(seed in any::<u64>(), pos in 0usize..32) {
        let rope = Rope::new(8, 32);
        let mut rng = Rng64::new(seed);
        let mut v: Vec<f32> = (0..8).map(|_| rng.normal(0.0, 1.0)).collect();
        let n0: f32 = v.iter().map(|x| x * x).sum();
        rope.apply(&mut v, pos);
        let n1: f32 = v.iter().map(|x| x * x).sum();
        prop_assert!((n0 - n1).abs() < 1e-3 * (1.0 + n0));
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Logits of `m` rows, with a causal mask's `-inf` above the diagonal
/// when `causal`; `scale` reaches exp's special path past a gap of 88.
fn masked_logits(seed: u64, m: usize, n: usize, scale: f32, causal: bool) -> Tensor {
    let mut x = Tensor::randn_scaled(&[m, n], scale, &mut Rng64::new(seed));
    if causal {
        for i in 0..m {
            for v in x.row_mut(i).iter_mut().skip(i + 1) {
                *v = f32::NEG_INFINITY;
            }
        }
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn softmax_rows_matches_scalar_formula_bit_for_bit(
        seed in any::<u64>(), m in 1usize..9, n in 1usize..40, wide in any::<bool>(), causal in any::<bool>(),
    ) {
        // Off glibc the scalar formulas are no bit-exact reference.
        if !exp_matches_f32_exp() {
            return Ok(());
        }
        let x = masked_logits(seed, m, n, if wide { 60.0 } else { 2.0 }, causal);
        let mut want = Tensor::zeros(&[m, n]);
        for i in 0..m {
            let row = x.row(i);
            let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let mut sum = 0.0f32;
            for (o, &v) in want.row_mut(i).iter_mut().zip(row) {
                *o = (v - max).exp();
                sum += *o;
            }
            let inv = 1.0 / sum;
            for o in want.row_mut(i) {
                *o *= inv;
            }
        }
        prop_assert_eq!(bits(&softmax_rows(&x)), bits(&want));
    }

    #[test]
    fn log_softmax_rows_matches_scalar_formula_bit_for_bit(
        seed in any::<u64>(), m in 1usize..9, n in 1usize..40, wide in any::<bool>(), causal in any::<bool>(),
    ) {
        // Off glibc the scalar formulas are no bit-exact reference.
        if !exp_matches_f32_exp() {
            return Ok(());
        }
        let x = masked_logits(seed, m, n, if wide { 60.0 } else { 2.0 }, causal);
        let mut want = Tensor::zeros(&[m, n]);
        for i in 0..m {
            let row = x.row(i);
            let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let lse = max + row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln();
            for (o, &v) in want.row_mut(i).iter_mut().zip(row) {
                *o = v - lse;
            }
        }
        prop_assert_eq!(bits(&log_softmax_rows(&x)), bits(&want));
    }

    #[test]
    fn swiglu_matches_scalar_formula_bit_for_bit(
        seed in any::<u64>(), m in 1usize..9, n in 1usize..40, wide in any::<bool>(),
    ) {
        // Off glibc the scalar formulas are no bit-exact reference.
        if !exp_matches_f32_exp() {
            return Ok(());
        }
        let mut rng = Rng64::new(seed);
        let scale = if wide { 60.0 } else { 3.0 };
        let g = Tensor::randn_scaled(&[m, n], scale, &mut rng);
        let u = Tensor::randn(&[m, n], &mut rng);
        let dh = Tensor::randn(&[m, n], &mut rng);
        let sigmoid = |x: f32| 1.0 / (1.0 + (-x).exp());
        let h = g.zip(&u, |g, u| g * sigmoid(g) * u).expect("same shape");
        let du = dh.zip(&g, |d, g| d * (g * sigmoid(g))).expect("same shape");
        let dg = dh
            .zip(&u, |d, u| d * u)
            .and_then(|du| du.zip(&g, |d, g| d * (sigmoid(g) * (1.0 + g * (1.0 - sigmoid(g))))))
            .expect("same shape");
        prop_assert_eq!(bits(&swiglu(&g, &u)), bits(&h));
        let (got_dg, got_du) = swiglu_backward(&g, &u, &dh);
        prop_assert_eq!(bits(&got_dg), bits(&dg));
        prop_assert_eq!(bits(&got_du), bits(&du));
    }
}

/// The padding token id of the eval vocabulary, which right-pads batches.
const PAD: usize = 0;

/// A two-layer decoder at the tiny-Llama widths, or encoder at the
/// tiny-BERT widths, with every block linear dense or replaced by its
/// rank-1 factorization.
fn tiny_two_layers(seed: u64, encoder: bool, rank1: bool) -> TransformerLm {
    let widths = if encoder {
        TransformerConfig::tiny_bert()
    } else {
        TransformerConfig::tiny_llama()
    };
    let cfg = TransformerConfig {
        n_layers: 2,
        ..widths
    };
    let mut model = TransformerLm::new(cfg, &mut Rng64::new(seed));
    if rank1 {
        for (_, _, slot) in model.visit_linears() {
            let t = tucker2(&slot.effective_weight(), 1).expect("finite weights");
            *slot = AnyLinear::Factored(FactoredLinear::from_tucker(t, None));
        }
    }
    model
}

fn row_bits(t: &Tensor, i: usize) -> Vec<u32> {
    t.row(i).iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The harness's batched, deduplicated scoring rests on this: under
    /// causal attention the logits row at position `t` has the same bits
    /// alone, truncated to `t + 1` tokens, and inside a right-padded batch
    /// of other sequences (batches here reach 160 rows, past one `MC`-row
    /// GEMM chunk). An encoder row sees its whole sequence, so for an
    /// encoder only the batch half holds: a sequence that fills the batch
    /// width has the bits it has alone.
    #[test]
    fn logits_row_is_independent_of_later_tokens_and_of_its_batch(
        seed in any::<u64>(),
        encoder in any::<bool>(),
        rank1 in any::<bool>(),
        len in 1usize..40,
        extra in 0usize..12,
        others in 1usize..4,
        at in 0usize..4,
    ) {
        let model = tiny_two_layers(seed, encoder, rank1);
        let vocab = model.config().vocab_size;
        let mut rng = Rng64::new(seed ^ 0x5EED);
        let seq: Vec<usize> = (0..len).map(|_| rng.below(vocab)).collect();
        let alone = model.logits(&seq, 1);
        if !encoder {
            for t in 0..len {
                let cut = model.logits(&seq[..=t], 1);
                prop_assert_eq!(row_bits(&cut, t), row_bits(&alone, t), "truncated to {} tokens", t + 1);
            }
        }
        // The batch is padded to `width`; the other sequences have random
        // lengths, and ours sits at row `at`.
        let width = if encoder { len } else { len + extra };
        let at = at.min(others);
        let mut flat = vec![PAD; (others + 1) * width];
        for b in 0..=others {
            let row = &mut flat[b * width..(b + 1) * width];
            if b == at {
                row[..len].copy_from_slice(&seq);
            } else {
                let n = 1 + rng.below(width);
                for x in &mut row[..n] {
                    *x = rng.below(vocab);
                }
            }
        }
        let batched = model.logits(&flat, others + 1);
        for t in 0..len {
            prop_assert_eq!(
                row_bits(&batched, at * width + t),
                row_bits(&alone, t),
                "position {} in the batch",
                t
            );
        }
    }
}
