//! Normalization layers: LayerNorm (BERT) and RMSNorm (Llama 2).

use crate::param::Param;
use lrd_tensor::Tensor;

const EPS: f32 = 1e-5;

/// LayerNorm with learned scale and shift, applied row-wise.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerNorm {
    /// Scale γ, length `d`.
    pub gamma: Param,
    /// Shift β, length `d`.
    pub beta: Param,
}

/// Cached forward state for [`LayerNorm`].
#[derive(Debug, Clone)]
pub struct LayerNormCache {
    xhat: Tensor,
    inv_std: Vec<f32>,
}

impl LayerNorm {
    /// Identity-initialized LayerNorm over feature width `d`.
    pub fn new(d: usize) -> Self {
        LayerNorm {
            gamma: Param::new(Tensor::full(&[d], 1.0)),
            beta: Param::zeros(&[d]),
        }
    }

    /// Number of parameters (2·d).
    pub fn param_count(&self) -> usize {
        self.gamma.len() + self.beta.len()
    }

    /// Row-wise normalization of `x (m × d)`, keeping the normalized rows
    /// and inverse deviations for [`LayerNorm::backward`].
    pub fn forward(&self, x: &Tensor) -> (Tensor, LayerNormCache) {
        let mut xhat = Tensor::zeros(&[x.rows(), x.cols()]);
        let mut inv_std = Vec::with_capacity(x.rows());
        let out = self.apply(x, |i, h, istd| {
            xhat.row_mut(i).copy_from_slice(h);
            inv_std.push(istd);
        });
        (out, LayerNormCache { xhat, inv_std })
    }

    /// Inference-only forward, with no cache.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        self.apply(x, |_, _, _| {})
    }

    /// `γ ⊙ x̂ + β` per row, with `x̂ = (x − mean) · istd`; `keep` sees
    /// each row's index, `x̂` and `istd` before the affine step.
    fn apply(&self, x: &Tensor, mut keep: impl FnMut(usize, &[f32], f32)) -> Tensor {
        let (m, d) = (x.rows(), x.cols());
        let mut out = Tensor::zeros(&[m, d]);
        let g = self.gamma.value.data();
        let b = self.beta.value.data();
        for i in 0..m {
            let row = x.row(i);
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let istd = 1.0 / (var + EPS).sqrt();
            let orow = out.row_mut(i);
            for (o, &v) in orow.iter_mut().zip(row) {
                *o = (v - mean) * istd;
            }
            keep(i, orow, istd);
            for ((o, &gj), &bj) in orow.iter_mut().zip(g).zip(b) {
                *o = *o * gj + bj;
            }
        }
        out
    }

    /// Backward pass; returns `dx`.
    pub fn backward(&mut self, cache: &LayerNormCache, dy: &Tensor) -> Tensor {
        let (m, d) = (dy.rows(), dy.cols());
        let g = self.gamma.value.data().to_vec();
        let mut dgamma = Tensor::zeros(&[d]);
        let mut dbeta = Tensor::zeros(&[d]);
        let mut dx = Tensor::zeros(&[m, d]);
        for i in 0..m {
            let dyrow = dy.row(i);
            let hrow = cache.xhat.row(i);
            for j in 0..d {
                dgamma.data_mut()[j] += dyrow[j] * hrow[j];
                dbeta.data_mut()[j] += dyrow[j];
            }
            // dxhat = dy * gamma
            let dxhat: Vec<f32> = (0..d).map(|j| dyrow[j] * g[j]).collect();
            let sum_dxhat: f32 = dxhat.iter().sum();
            let sum_dxhat_xhat: f32 = dxhat.iter().zip(hrow).map(|(&a, &b)| a * b).sum();
            let istd = cache.inv_std[i];
            let xrow = dx.row_mut(i);
            for j in 0..d {
                xrow[j] =
                    istd / d as f32 * (d as f32 * dxhat[j] - sum_dxhat - hrow[j] * sum_dxhat_xhat);
            }
        }
        self.gamma.accumulate(&dgamma);
        self.beta.accumulate(&dbeta);
        dx
    }

    /// Visits parameters as `(name, param)` pairs.
    pub fn visit_params<'a>(&'a mut self, prefix: &str, out: &mut Vec<(String, &'a mut Param)>) {
        out.push((format!("{prefix}.gamma"), &mut self.gamma));
        out.push((format!("{prefix}.beta"), &mut self.beta));
    }
}

/// RMSNorm (no mean subtraction, no shift), as used by Llama 2.
#[derive(Debug, Clone, PartialEq)]
pub struct RmsNorm {
    /// Scale γ, length `d`.
    pub gamma: Param,
}

/// Cached forward state for [`RmsNorm`].
#[derive(Debug, Clone)]
pub struct RmsNormCache {
    x: Tensor,
    inv_rms: Vec<f32>,
}

impl RmsNorm {
    /// Identity-initialized RMSNorm over feature width `d`.
    pub fn new(d: usize) -> Self {
        RmsNorm {
            gamma: Param::new(Tensor::full(&[d], 1.0)),
        }
    }

    /// Number of parameters (d).
    pub fn param_count(&self) -> usize {
        self.gamma.len()
    }

    /// Row-wise normalization `y = γ ⊙ x / rms(x)`, keeping `x` and the
    /// inverse RMS values for [`RmsNorm::backward`].
    pub fn forward(&self, x: &Tensor) -> (Tensor, RmsNormCache) {
        let mut inv_rms = Vec::with_capacity(x.rows());
        let out = self.apply(x, |irms| inv_rms.push(irms));
        (
            out,
            RmsNormCache {
                x: x.clone(),
                inv_rms,
            },
        )
    }

    /// Inference-only forward, with no cache.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        self.apply(x, |_| {})
    }

    /// `γ ⊙ x / rms(x)` per row; `keep` sees each row's inverse RMS.
    fn apply(&self, x: &Tensor, mut keep: impl FnMut(f32)) -> Tensor {
        let (m, d) = (x.rows(), x.cols());
        let mut out = Tensor::zeros(&[m, d]);
        let g = self.gamma.value.data();
        for i in 0..m {
            let row = x.row(i);
            let ms = row.iter().map(|&v| v * v).sum::<f32>() / d as f32;
            let irms = 1.0 / (ms + EPS).sqrt();
            keep(irms);
            for ((o, &v), &gj) in out.row_mut(i).iter_mut().zip(row).zip(g) {
                *o = v * irms * gj;
            }
        }
        out
    }

    /// Backward pass; returns `dx`.
    pub fn backward(&mut self, cache: &RmsNormCache, dy: &Tensor) -> Tensor {
        let (m, d) = (dy.rows(), dy.cols());
        let g = self.gamma.value.data().to_vec();
        let mut dgamma = Tensor::zeros(&[d]);
        let mut dx = Tensor::zeros(&[m, d]);
        for i in 0..m {
            let dyrow = dy.row(i);
            let xrow = cache.x.row(i);
            let irms = cache.inv_rms[i];
            for j in 0..d {
                dgamma.data_mut()[j] += dyrow[j] * xrow[j] * irms;
            }
            // dx = irms * g⊙dy − irms³/d · x · Σ(g⊙dy⊙x)
            let dot: f32 = (0..d).map(|j| g[j] * dyrow[j] * xrow[j]).sum();
            let coef = irms * irms * irms / d as f32 * dot;
            let oxrow = dx.row_mut(i);
            for j in 0..d {
                oxrow[j] = irms * g[j] * dyrow[j] - coef * xrow[j];
            }
        }
        self.gamma.accumulate(&dgamma);
        dx
    }

    /// Visits parameters as `(name, param)` pairs.
    pub fn visit_params<'a>(&'a mut self, prefix: &str, out: &mut Vec<(String, &'a mut Param)>) {
        out.push((format!("{prefix}.gamma"), &mut self.gamma));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrd_tensor::rng::Rng64;

    #[test]
    fn layernorm_normalizes_rows() {
        let mut rng = Rng64::new(1);
        let ln = LayerNorm::new(16);
        let x = Tensor::randn_scaled(&[4, 16], 3.0, &mut rng);
        let (y, _) = ln.forward(&x);
        for i in 0..4 {
            let mean: f32 = y.row(i).iter().sum::<f32>() / 16.0;
            let var: f32 = y
                .row(i)
                .iter()
                .map(|&v| (v - mean) * (v - mean))
                .sum::<f32>()
                / 16.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn rmsnorm_unit_rms() {
        let mut rng = Rng64::new(2);
        let rn = RmsNorm::new(12);
        let x = Tensor::randn_scaled(&[3, 12], 5.0, &mut rng);
        let (y, _) = rn.forward(&x);
        for i in 0..3 {
            let ms: f32 = y.row(i).iter().map(|&v| v * v).sum::<f32>() / 12.0;
            assert!((ms - 1.0).abs() < 1e-2, "rms² = {ms}");
        }
    }

    fn check_dx(
        forward: &dyn Fn(&Tensor) -> Tensor,
        x: &Tensor,
        dy: &Tensor,
        dx: &Tensor,
        tol: f32,
    ) {
        let h = 1e-2;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += h;
            let mut xm = x.clone();
            xm.data_mut()[i] -= h;
            let fd = (forward(&xp).dot(dy) - forward(&xm).dot(dy)) / (2.0 * h);
            assert!(
                (dx.data()[i] - fd).abs() < tol,
                "dx[{i}]: {} vs {fd}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn layernorm_backward_matches_finite_difference() {
        let mut rng = Rng64::new(3);
        let mut ln = LayerNorm::new(6);
        // Non-trivial gamma/beta.
        ln.gamma.value = Tensor::randn(&[6], &mut rng).map(|v| 1.0 + 0.3 * v);
        ln.beta.value = Tensor::randn(&[6], &mut rng);
        let x = Tensor::randn(&[3, 6], &mut rng);
        let dy = Tensor::randn(&[3, 6], &mut rng);
        let (_, cache) = ln.forward(&x);
        let dx = ln.backward(&cache, &dy);
        let lc = ln.clone();
        check_dx(&|x| lc.forward(x).0, &x, &dy, &dx, 2e-2);
    }

    #[test]
    fn layernorm_param_grads_match_finite_difference() {
        let mut rng = Rng64::new(4);
        let mut ln = LayerNorm::new(5);
        let x = Tensor::randn(&[2, 5], &mut rng);
        let dy = Tensor::randn(&[2, 5], &mut rng);
        let (_, cache) = ln.forward(&x);
        ln.backward(&cache, &dy);
        let h = 1e-2;
        for j in 0..5 {
            let mut lp = ln.clone();
            lp.gamma.value.data_mut()[j] += h;
            let mut lm = ln.clone();
            lm.gamma.value.data_mut()[j] -= h;
            let fd = (lp.forward(&x).0.dot(&dy) - lm.forward(&x).0.dot(&dy)) / (2.0 * h);
            assert!((ln.gamma.grad.data()[j] - fd).abs() < 1e-2, "dgamma[{j}]");
        }
    }

    #[test]
    fn rmsnorm_backward_matches_finite_difference() {
        let mut rng = Rng64::new(5);
        let mut rn = RmsNorm::new(7);
        rn.gamma.value = Tensor::randn(&[7], &mut rng).map(|v| 1.0 + 0.2 * v);
        let x = Tensor::randn(&[3, 7], &mut rng);
        let dy = Tensor::randn(&[3, 7], &mut rng);
        let (_, cache) = rn.forward(&x);
        let dx = rn.backward(&cache, &dy);
        let rc = rn.clone();
        check_dx(&|x| rc.forward(x).0, &x, &dy, &dx, 2e-2);
    }

    #[test]
    fn rmsnorm_gamma_grad_matches_finite_difference() {
        let mut rng = Rng64::new(6);
        let mut rn = RmsNorm::new(4);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let dy = Tensor::randn(&[2, 4], &mut rng);
        let (_, cache) = rn.forward(&x);
        rn.backward(&cache, &dy);
        let h = 1e-2;
        for j in 0..4 {
            let mut rp = rn.clone();
            rp.gamma.value.data_mut()[j] += h;
            let mut rm = rn.clone();
            rm.gamma.value.data_mut()[j] -= h;
            let fd = (rp.forward(&x).0.dot(&dy) - rm.forward(&x).0.dot(&dy)) / (2.0 * h);
            assert!((rn.gamma.grad.data()[j] - fd).abs() < 1e-2, "dgamma[{j}]");
        }
    }

    /// `infer` skips the cache but gives `forward`'s output bits.
    #[test]
    fn infer_matches_forward_bit_for_bit() {
        let mut rng = Rng64::new(8);
        let x = Tensor::randn_scaled(&[5, 9], 3.0, &mut rng);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut ln = LayerNorm::new(9);
        ln.gamma.value = Tensor::randn(&[9], &mut rng);
        ln.beta.value = Tensor::randn(&[9], &mut rng);
        assert_eq!(bits(&ln.infer(&x)), bits(&ln.forward(&x).0));
        let mut rn = RmsNorm::new(9);
        rn.gamma.value = Tensor::randn(&[9], &mut rng);
        assert_eq!(bits(&rn.infer(&x)), bits(&rn.forward(&x).0));
    }

    #[test]
    fn scale_invariance_of_rmsnorm() {
        let mut rng = Rng64::new(7);
        let rn = RmsNorm::new(8);
        let x = Tensor::randn(&[2, 8], &mut rng);
        let y1 = rn.infer(&x);
        let y2 = rn.infer(&x.scale(10.0));
        assert!(y1.approx_eq(&y2, 1e-3));
    }
}
