//! Feed-forward blocks: BERT's GELU intermediate/output MLP and Llama 2's
//! SwiGLU gate/up/down MLP.
//!
//! The weight tensors here are the MLP-side decomposable tensors of the
//! paper (Fig. 4): `W_Int`/`W_O` for BERT and `W_G`/`W_U`/`W_D` for Llama.

use crate::act::{gelu, gelu_grad, swiglu, swiglu_backward};
use crate::linear::{AnyLinear, AnyLinearCache};
use crate::param::Param;
use lrd_tensor::rng::Rng64;
use lrd_tensor::Tensor;

/// Element-wise combine of two same-shaped activation tensors.
fn ew(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    // lrd-lint: allow(no-panic, "both operands come from projections of the same input rows, so shapes always agree; a mismatch is an internal bug worth aborting on")
    a.zip(b, f).expect("shape")
}

/// BERT-style MLP: `y = W_O · gelu(W_Int · x)`.
#[derive(Debug, Clone, PartialEq)]
pub struct BertMlp {
    /// Intermediate projection `W_Int`, `d × d_ff`.
    pub intermediate: AnyLinear,
    /// Output projection `W_O`, `d_ff × d`.
    pub output: AnyLinear,
}

/// Cached forward state for [`BertMlp`].
#[derive(Debug, Clone)]
pub struct BertMlpCache {
    int_cache: AnyLinearCache,
    out_cache: AnyLinearCache,
    pre_act: Tensor,
}

impl BertMlp {
    /// Randomly initialized BERT MLP.
    pub fn new(d_model: usize, d_ff: usize, rng: &mut Rng64) -> Self {
        BertMlp {
            intermediate: AnyLinear::dense(d_model, d_ff, true, rng),
            output: AnyLinear::dense(d_ff, d_model, true, rng),
        }
    }

    /// Number of parameters.
    pub fn param_count(&self) -> usize {
        self.intermediate.param_count() + self.output.param_count()
    }

    /// Forward pass over `x (m × d)`.
    pub fn forward(&self, x: &Tensor) -> (Tensor, BertMlpCache) {
        let (pre_act, int_cache) = self.intermediate.forward(x);
        let h = pre_act.map(gelu);
        let (y, out_cache) = self.output.forward(&h);
        (
            y,
            BertMlpCache {
                int_cache,
                out_cache,
                pre_act,
            },
        )
    }

    /// Inference-only forward: intermediates are consumed, not cached.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let h = self.intermediate.infer(x).map(gelu);
        self.output.infer(&h)
    }

    /// Backward pass; returns `dx`.
    pub fn backward(&mut self, cache: &BertMlpCache, dy: &Tensor) -> Tensor {
        let dh = self.output.backward(&cache.out_cache, dy);
        let dpre = ew(&dh, &cache.pre_act, |g, x| g * gelu_grad(x));
        self.intermediate.backward(&cache.int_cache, &dpre)
    }

    /// Visits the two linear slots (decomposer hook).
    pub fn visit_linears<'a>(&'a mut self, out: &mut Vec<(&'static str, &'a mut AnyLinear)>) {
        out.push(("intermediate", &mut self.intermediate));
        out.push(("output", &mut self.output));
    }

    /// Visits parameters as `(name, param)` pairs.
    pub fn visit_params<'a>(&'a mut self, prefix: &str, out: &mut Vec<(String, &'a mut Param)>) {
        self.intermediate
            .visit_params(&format!("{prefix}.intermediate"), out);
        self.output.visit_params(&format!("{prefix}.output"), out);
    }
}

/// Llama-style SwiGLU MLP: `y = W_D · (silu(W_G · x) ⊙ (W_U · x))`.
#[derive(Debug, Clone, PartialEq)]
pub struct SwiGluMlp {
    /// Gate projection `W_G`, `d × d_ff`.
    pub gate: AnyLinear,
    /// Up projection `W_U`, `d × d_ff`.
    pub up: AnyLinear,
    /// Down projection `W_D`, `d_ff × d`.
    pub down: AnyLinear,
}

/// Cached forward state for [`SwiGluMlp`].
#[derive(Debug, Clone)]
pub struct SwiGluCache {
    gate_cache: AnyLinearCache,
    up_cache: AnyLinearCache,
    down_cache: AnyLinearCache,
    gate_pre: Tensor,
    up_out: Tensor,
}

impl SwiGluMlp {
    /// Randomly initialized SwiGLU MLP (Llama uses no biases).
    pub fn new(d_model: usize, d_ff: usize, rng: &mut Rng64) -> Self {
        SwiGluMlp {
            gate: AnyLinear::dense(d_model, d_ff, false, rng),
            up: AnyLinear::dense(d_model, d_ff, false, rng),
            down: AnyLinear::dense(d_ff, d_model, false, rng),
        }
    }

    /// Number of parameters.
    pub fn param_count(&self) -> usize {
        self.gate.param_count() + self.up.param_count() + self.down.param_count()
    }

    /// Forward pass over `x (m × d)`.
    pub fn forward(&self, x: &Tensor) -> (Tensor, SwiGluCache) {
        let (gate_pre, gate_cache) = self.gate.forward(x);
        let (up_out, up_cache) = self.up.forward(x);
        let h = swiglu(&gate_pre, &up_out);
        let (y, down_cache) = self.down.forward(&h);
        (
            y,
            SwiGluCache {
                gate_cache,
                up_cache,
                down_cache,
                gate_pre,
                up_out,
            },
        )
    }

    /// Inference-only forward: intermediates are consumed, not cached.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let gate_pre = self.gate.infer(x);
        let up_out = self.up.infer(x);
        let h = swiglu(&gate_pre, &up_out);
        self.down.infer(&h)
    }

    /// Backward pass; returns `dx`.
    pub fn backward(&mut self, cache: &SwiGluCache, dy: &Tensor) -> Tensor {
        let dh = self.down.backward(&cache.down_cache, dy);
        let (dgate, dup) = swiglu_backward(&cache.gate_pre, &cache.up_out, &dh);
        let mut dx = self.gate.backward(&cache.gate_cache, &dgate);
        dx.axpy(1.0, &self.up.backward(&cache.up_cache, &dup));
        dx
    }

    /// Visits the three linear slots (decomposer hook).
    pub fn visit_linears<'a>(&'a mut self, out: &mut Vec<(&'static str, &'a mut AnyLinear)>) {
        out.push(("gate", &mut self.gate));
        out.push(("up", &mut self.up));
        out.push(("down", &mut self.down));
    }

    /// Visits parameters as `(name, param)` pairs.
    pub fn visit_params<'a>(&'a mut self, prefix: &str, out: &mut Vec<(String, &'a mut Param)>) {
        self.gate.visit_params(&format!("{prefix}.gate"), out);
        self.up.visit_params(&format!("{prefix}.up"), out);
        self.down.visit_params(&format!("{prefix}.down"), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_dx(f: &dyn Fn(&Tensor) -> Tensor, x: &Tensor, dy: &Tensor, dx: &Tensor) {
        let h = 1e-2;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += h;
            let mut xm = x.clone();
            xm.data_mut()[i] -= h;
            let fd = (f(&xp).dot(dy) - f(&xm).dot(dy)) / (2.0 * h);
            assert!(
                (dx.data()[i] - fd).abs() < 3e-2,
                "dx[{i}]: {} vs {fd}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn bert_mlp_shapes() {
        let mut rng = Rng64::new(1);
        let mlp = BertMlp::new(8, 16, &mut rng);
        let x = Tensor::randn(&[3, 8], &mut rng);
        let (y, _) = mlp.forward(&x);
        assert_eq!(y.dims(), &[3, 8]);
        assert_eq!(mlp.param_count(), 8 * 16 + 16 + 16 * 8 + 8);
    }

    #[test]
    fn bert_mlp_backward_matches_fd() {
        let mut rng = Rng64::new(2);
        let mut mlp = BertMlp::new(6, 10, &mut rng);
        let x = Tensor::randn(&[2, 6], &mut rng);
        let dy = Tensor::randn(&[2, 6], &mut rng);
        let (_, c) = mlp.forward(&x);
        let dx = mlp.backward(&c, &dy);
        let mc = mlp.clone();
        check_dx(&|x| mc.forward(x).0, &x, &dy, &dx);
    }

    #[test]
    fn swiglu_shapes() {
        let mut rng = Rng64::new(3);
        let mlp = SwiGluMlp::new(8, 20, &mut rng);
        let x = Tensor::randn(&[4, 8], &mut rng);
        let (y, _) = mlp.forward(&x);
        assert_eq!(y.dims(), &[4, 8]);
        assert_eq!(mlp.param_count(), 3 * 8 * 20);
    }

    #[test]
    fn swiglu_backward_matches_fd() {
        let mut rng = Rng64::new(4);
        let mut mlp = SwiGluMlp::new(6, 12, &mut rng);
        let x = Tensor::randn(&[2, 6], &mut rng);
        let dy = Tensor::randn(&[2, 6], &mut rng);
        let (_, c) = mlp.forward(&x);
        let dx = mlp.backward(&c, &dy);
        let mc = mlp.clone();
        check_dx(&|x| mc.forward(x).0, &x, &dy, &dx);
    }

    #[test]
    fn swiglu_weight_grads_match_fd() {
        let mut rng = Rng64::new(5);
        let mut mlp = SwiGluMlp::new(4, 8, &mut rng);
        let x = Tensor::randn(&[3, 4], &mut rng);
        let dy = Tensor::randn(&[3, 4], &mut rng);
        let (_, c) = mlp.forward(&x);
        mlp.backward(&c, &dy);
        let gate_grads = match &mlp.gate {
            AnyLinear::Dense(l) => l.w.grad.clone(),
            _ => unreachable!(),
        };
        let h = 1e-2;
        for &i in &[0usize, 9, 21, 31] {
            let mut mp = mlp.clone();
            let mut mm = mlp.clone();
            if let (AnyLinear::Dense(lp), AnyLinear::Dense(lm)) = (&mut mp.gate, &mut mm.gate) {
                lp.w.value.data_mut()[i] += h;
                lm.w.value.data_mut()[i] -= h;
            }
            let fd = (mp.forward(&x).0.dot(&dy) - mm.forward(&x).0.dot(&dy)) / (2.0 * h);
            assert!((gate_grads.data()[i] - fd).abs() < 2e-2, "dWg[{i}]");
        }
    }

    #[test]
    fn visit_linears_names() {
        let mut rng = Rng64::new(6);
        let mut mlp = SwiGluMlp::new(4, 8, &mut rng);
        let mut slots = Vec::new();
        mlp.visit_linears(&mut slots);
        let names: Vec<_> = slots.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["gate", "up", "down"]);
    }
}
