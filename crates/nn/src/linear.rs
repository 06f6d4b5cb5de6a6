//! Dense and low-rank-factored linear layers.
//!
//! [`FactoredLinear`] is the deployed form of the paper's Tucker-decomposed
//! weight: a dense `in × out` matrix is replaced by
//! `U1 (in × pr) · Γ (pr × pr) · U2 (pr × out)`, turning one GEMM into three
//! smaller ones (§2.3). [`AnyLinear`] lets a model hold either form in the
//! same slot, which is how the decomposer swaps tensors in place.

use crate::param::Param;
use lrd_tensor::dtype::KernelDtype;
use lrd_tensor::kernel::Backend;
use lrd_tensor::matmul::{factored_matmul, gemm, matmul, matmul_transa, matmul_transb, Trans};
use lrd_tensor::rng::Rng64;
use lrd_tensor::tucker::Tucker2;
use lrd_tensor::Tensor;

/// Adds `bias` to every row of `y` in place.
fn add_bias_rows(y: &mut Tensor, bias: &[f32]) {
    for i in 0..y.rows() {
        for (v, &bj) in y.row_mut(i).iter_mut().zip(bias) {
            *v += bj;
        }
    }
}

/// A dense affine layer `y = x·W (+ b)` with `W (in × out)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    /// Weight matrix, `in × out`.
    pub w: Param,
    /// Optional bias, length `out`.
    pub b: Option<Param>,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new(fan_in: usize, fan_out: usize, bias: bool, rng: &mut Rng64) -> Self {
        Linear {
            w: Param::xavier(fan_in, fan_out, rng),
            b: bias.then(|| Param::zeros(&[fan_out])),
        }
    }

    /// Input width.
    pub fn fan_in(&self) -> usize {
        self.w.value.rows()
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        self.w.value.cols()
    }

    /// Number of stored parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.as_ref().map_or(0, Param::len)
    }

    /// Forward pass for a batch of rows `x (m × in)`. Nothing is cached:
    /// [`Linear::backward`] takes the same `x` again.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != fan_in`.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let mut y = matmul(x, &self.w.value);
        if let Some(b) = &self.b {
            add_bias_rows(&mut y, b.value.data());
        }
        y
    }

    /// Backward pass for the forward input `x`: accumulates weight/bias
    /// gradients and returns `dx`.
    pub fn backward(&mut self, x: &Tensor, dy: &Tensor) -> Tensor {
        let dw = matmul_transa(x, dy);
        self.w.accumulate(&dw);
        if let Some(b) = &mut self.b {
            let mut db = Tensor::zeros(&[dy.cols()]);
            for i in 0..dy.rows() {
                for (j, &g) in dy.row(i).iter().enumerate() {
                    db.data_mut()[j] += g;
                }
            }
            b.accumulate(&db);
        }
        matmul_transb(dy, &self.w.value)
    }

    /// Visits parameters as `(name, param)` pairs.
    pub fn visit_params<'a>(&'a mut self, prefix: &str, out: &mut Vec<(String, &'a mut Param)>) {
        out.push((format!("{prefix}.w"), &mut self.w));
        if let Some(b) = &mut self.b {
            out.push((format!("{prefix}.b"), b));
        }
    }
}

/// The factored (decomposed) linear layer `y = ((x·U1)·Γ)·U2 (+ b)`.
///
/// Replaces a dense `in × out` weight with three factors of pruned rank
/// `pr`, storing `in·pr + pr² + pr·out` weights.
#[derive(Debug, Clone, PartialEq)]
pub struct FactoredLinear {
    /// Left factor, `in × pr`.
    pub u1: Param,
    /// Core, `pr × pr`.
    pub core: Param,
    /// Right factor, `pr × out`.
    pub u2: Param,
    /// Optional bias carried over from the dense layer.
    pub b: Option<Param>,
}

impl FactoredLinear {
    /// Builds the factored layer from a Tucker-2 factorization of a dense
    /// weight, carrying over the dense layer's bias.
    pub fn from_tucker(t: Tucker2, bias: Option<Param>) -> Self {
        FactoredLinear {
            u1: Param::new(t.u1),
            core: Param::new(t.core),
            u2: Param::new(t.u2),
            b: bias,
        }
    }

    /// The pruned rank.
    pub fn rank(&self) -> usize {
        self.core.value.rows()
    }

    /// Input width.
    pub fn fan_in(&self) -> usize {
        self.u1.value.rows()
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        self.u2.value.cols()
    }

    /// Number of stored parameters.
    pub fn param_count(&self) -> usize {
        self.u1.len() + self.core.len() + self.u2.len() + self.b.as_ref().map_or(0, Param::len)
    }

    /// Reconstructs the equivalent dense weight `U1·Γ·U2`.
    pub fn reconstruct_weight(&self) -> Tensor {
        matmul(&matmul(&self.u1.value, &self.core.value), &self.u2.value)
    }

    /// Forward pass `y = ((x·U1)·Γ)·U2 (+ b)` via the fused factored
    /// pipeline: the `h1`/`h2` intermediates stay in cache-blocked scratch
    /// inside the engine and never materialize as tensors.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let mut y = factored_matmul(x, &self.u1.value, &self.core.value, &self.u2.value);
        if let Some(b) = &self.b {
            add_bias_rows(&mut y, b.value.data());
        }
        y
    }

    /// Backward pass through all three factors for the forward input `x`;
    /// returns `dx`.
    ///
    /// The stage intermediates `h1 = x·U1` and `h2 = h1·Γ` are recomputed
    /// rather than kept from the forward pass: at rank `r` they cost
    /// `m·r·(in + r)` MACs. They use the fused [`FactoredLinear::infer`]'s
    /// panel dtype, so they equal its stages bit for bit.
    pub fn backward(&mut self, x: &Tensor, dy: &Tensor) -> Tensor {
        let (backend, dtype) = (Backend::active(), KernelDtype::active());
        let h1 = gemm(backend, dtype, Trans::No, x, &self.u1.value);
        let h2 = gemm(backend, dtype, Trans::No, &h1, &self.core.value);
        if let Some(b) = &mut self.b {
            let mut db = Tensor::zeros(&[dy.cols()]);
            for i in 0..dy.rows() {
                for (j, &g) in dy.row(i).iter().enumerate() {
                    db.data_mut()[j] += g;
                }
            }
            b.accumulate(&db);
        }
        let du2 = matmul_transa(&h2, dy);
        self.u2.accumulate(&du2);
        let dh2 = matmul_transb(dy, &self.u2.value);
        let dcore = matmul_transa(&h1, &dh2);
        self.core.accumulate(&dcore);
        let dh1 = matmul_transb(&dh2, &self.core.value);
        let du1 = matmul_transa(x, &dh1);
        self.u1.accumulate(&du1);
        matmul_transb(&dh1, &self.u1.value)
    }

    /// Visits parameters as `(name, param)` pairs.
    pub fn visit_params<'a>(&'a mut self, prefix: &str, out: &mut Vec<(String, &'a mut Param)>) {
        out.push((format!("{prefix}.u1"), &mut self.u1));
        out.push((format!("{prefix}.core"), &mut self.core));
        out.push((format!("{prefix}.u2"), &mut self.u2));
        if let Some(b) = &mut self.b {
            out.push((format!("{prefix}.b"), b));
        }
    }
}

/// A linear slot that is either dense or factored — the unit of replacement
/// for the decomposer.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyLinear {
    /// Original dense layer.
    Dense(Linear),
    /// Tucker-decomposed layer.
    Factored(FactoredLinear),
}

impl AnyLinear {
    /// Xavier-initialized dense layer.
    pub fn dense(fan_in: usize, fan_out: usize, bias: bool, rng: &mut Rng64) -> Self {
        AnyLinear::Dense(Linear::new(fan_in, fan_out, bias, rng))
    }

    /// Whether the slot currently holds a factored layer.
    pub fn is_factored(&self) -> bool {
        matches!(self, AnyLinear::Factored(_))
    }

    /// Input width.
    pub fn fan_in(&self) -> usize {
        match self {
            AnyLinear::Dense(l) => l.fan_in(),
            AnyLinear::Factored(f) => f.fan_in(),
        }
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        match self {
            AnyLinear::Dense(l) => l.fan_out(),
            AnyLinear::Factored(f) => f.fan_out(),
        }
    }

    /// Number of stored parameters.
    pub fn param_count(&self) -> usize {
        match self {
            AnyLinear::Dense(l) => l.param_count(),
            AnyLinear::Factored(f) => f.param_count(),
        }
    }

    /// Forward pass; nothing is cached.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        match self {
            AnyLinear::Dense(l) => l.infer(x),
            AnyLinear::Factored(f) => f.infer(x),
        }
    }

    /// Backward pass for the forward input `x`; returns `dx`.
    pub fn backward(&mut self, x: &Tensor, dy: &Tensor) -> Tensor {
        match self {
            AnyLinear::Dense(l) => l.backward(x, dy),
            AnyLinear::Factored(f) => f.backward(x, dy),
        }
    }

    /// Visits parameters as `(name, param)` pairs.
    pub fn visit_params<'a>(&'a mut self, prefix: &str, out: &mut Vec<(String, &'a mut Param)>) {
        match self {
            AnyLinear::Dense(l) => l.visit_params(prefix, out),
            AnyLinear::Factored(f) => f.visit_params(prefix, out),
        }
    }

    /// The dense weight this slot represents (reconstructed if factored).
    pub fn effective_weight(&self) -> Tensor {
        match self {
            AnyLinear::Dense(l) => l.w.value.clone(),
            AnyLinear::Factored(f) => f.reconstruct_weight(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numerical_dx(f: &dyn Fn(&Tensor) -> Tensor, x: &Tensor, dy: &Tensor, h: f32) -> Tensor {
        let mut dx = Tensor::zeros(x.dims());
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += h;
            let mut xm = x.clone();
            xm.data_mut()[i] -= h;
            let fp = f(&xp).dot(dy);
            let fm = f(&xm).dot(dy);
            dx.data_mut()[i] = (fp - fm) / (2.0 * h);
        }
        dx
    }

    #[test]
    fn linear_forward_shape_and_bias() {
        let mut rng = Rng64::new(1);
        let mut l = Linear::new(4, 3, true, &mut rng);
        l.b.as_mut().unwrap().value.data_mut()[1] = 2.0;
        let x = Tensor::zeros(&[5, 4]);
        let y = l.infer(&x);
        assert_eq!(y.dims(), &[5, 3]);
        assert_eq!(y.get(&[2, 1]), 2.0);
    }

    #[test]
    fn linear_backward_dx_matches_finite_difference() {
        let mut rng = Rng64::new(2);
        let mut l = Linear::new(4, 3, true, &mut rng);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let dy = Tensor::randn(&[2, 3], &mut rng);
        let dx = l.backward(&x, &dy);
        let lc = l.clone();
        let fd = numerical_dx(&|x| lc.infer(x), &x, &dy, 1e-2);
        assert!(dx.approx_eq(&fd, 1e-2), "dx mismatch");
    }

    #[test]
    fn linear_backward_dw_matches_finite_difference() {
        let mut rng = Rng64::new(3);
        let mut l = Linear::new(3, 2, false, &mut rng);
        let x = Tensor::randn(&[4, 3], &mut rng);
        let dy = Tensor::randn(&[4, 2], &mut rng);
        l.backward(&x, &dy);
        let h = 1e-2;
        for i in 0..l.w.len() {
            let mut lp = l.clone();
            lp.w.value.data_mut()[i] += h;
            let mut lm = l.clone();
            lm.w.value.data_mut()[i] -= h;
            let fd = (lp.infer(&x).dot(&dy) - lm.infer(&x).dot(&dy)) / (2.0 * h);
            assert!((l.w.grad.data()[i] - fd).abs() < 1e-2, "dw[{i}]");
        }
    }

    #[test]
    fn factored_equals_dense_at_full_rank() {
        let mut rng = Rng64::new(4);
        let dense = Linear::new(6, 5, false, &mut rng);
        let fac = FactoredLinear::from_tucker(
            lrd_tensor::tucker::tucker2(&dense.w.value, 5).unwrap(),
            None,
        );
        let x = Tensor::randn(&[3, 6], &mut rng);
        let yd = dense.infer(&x);
        let yf = fac.infer(&x);
        // At 16-bit B-panel storage the dense path rounds W once while the
        // factored path rounds three smaller panels, so the two sides agree
        // only to the documented storage bound, not to f32 accuracy.
        let tol = match lrd_tensor::dtype::KernelDtype::active() {
            lrd_tensor::dtype::KernelDtype::F32 => 1e-3,
            _ => 5e-2,
        };
        assert!(yd.approx_eq(&yf, tol));
    }

    #[test]
    fn factored_backward_matches_finite_difference() {
        // Finite differences through a forward whose B panels are stored
        // at 16 bits measure the storage rounding, not the analytic
        // gradient — the check is only well-posed at f32 storage.
        if lrd_tensor::dtype::KernelDtype::active() != lrd_tensor::dtype::KernelDtype::F32 {
            return;
        }
        let mut rng = Rng64::new(5);
        let w = Tensor::randn(&[5, 4], &mut rng);
        let mut fac =
            FactoredLinear::from_tucker(lrd_tensor::tucker::tucker2(&w, 2).unwrap(), None);
        let x = Tensor::randn(&[3, 5], &mut rng);
        let dy = Tensor::randn(&[3, 4], &mut rng);
        let dx = fac.backward(&x, &dy);
        let fc = fac.clone();
        let fd = numerical_dx(&|x| fc.infer(x), &x, &dy, 1e-2);
        assert!(dx.approx_eq(&fd, 1e-2));
        // Core gradient check.
        let h = 1e-2;
        for i in 0..fac.core.len() {
            let mut fp = fac.clone();
            fp.core.value.data_mut()[i] += h;
            let mut fm = fac.clone();
            fm.core.value.data_mut()[i] -= h;
            let fd = (fp.infer(&x).dot(&dy) - fm.infer(&x).dot(&dy)) / (2.0 * h);
            assert!((fac.core.grad.data()[i] - fd).abs() < 2e-2, "dcore[{i}]");
        }
    }

    #[test]
    fn factored_backward_sees_the_fused_forward_stages() {
        // With Γ and U2 identities the fused forward returns its own `h1`
        // (= `h2`) as `y`, so at every panel dtype the factor gradients
        // must be built from exactly `y`'s bits. The second shape is the
        // recovery batch at rank 1: its `x·U1` and `h1·Γ` stages run as
        // row dots over several `MC`-row chunks at f32, and pack at 16 bits.
        let mut rng = Rng64::new(9);
        for (m, k, r) in [(7, 40, 3), (384, 40, 1)] {
            let mut eye = Tensor::zeros(&[r, r]);
            for i in 0..r {
                eye.set(&[i, i], 1.0);
            }
            let mut fac = FactoredLinear {
                u1: Param::new(Tensor::randn(&[k, r], &mut rng)),
                core: Param::new(eye.clone()),
                u2: Param::new(eye),
                b: None,
            };
            let x = Tensor::randn(&[m, k], &mut rng);
            let dy = Tensor::randn(&[m, r], &mut rng);
            let y = fac.infer(&x);
            fac.backward(&x, &dy);
            assert_eq!(fac.u2.grad, matmul_transa(&y, &dy), "({m},{k},{r})");
            let dh2 = matmul_transb(&dy, &fac.u2.value);
            assert_eq!(fac.core.grad, matmul_transa(&y, &dh2), "({m},{k},{r})");
        }
    }

    #[test]
    fn factored_param_count() {
        let mut rng = Rng64::new(6);
        let w = Tensor::randn(&[10, 8], &mut rng);
        let fac = FactoredLinear::from_tucker(lrd_tensor::tucker::tucker2(&w, 1).unwrap(), None);
        assert_eq!(fac.param_count(), 10 + 1 + 8);
        assert_eq!(fac.rank(), 1);
        assert_eq!(fac.fan_in(), 10);
        assert_eq!(fac.fan_out(), 8);
    }

    #[test]
    fn any_linear_swap_preserves_shapes() {
        let mut rng = Rng64::new(7);
        let slot = AnyLinear::dense(6, 4, false, &mut rng);
        let w = slot.effective_weight();
        let fac = AnyLinear::Factored(FactoredLinear::from_tucker(
            lrd_tensor::tucker::tucker2(&w, 1).unwrap(),
            None,
        ));
        assert_eq!(slot.fan_in(), fac.fan_in());
        assert_eq!(slot.fan_out(), fac.fan_out());
        assert!(fac.is_factored() && !slot.is_factored());
        assert!(fac.param_count() < slot.param_count());
    }

    #[test]
    fn visit_params_names() {
        let mut rng = Rng64::new(8);
        let mut l = AnyLinear::dense(3, 3, true, &mut rng);
        let mut out = Vec::new();
        l.visit_params("blk0.q", &mut out);
        let names: Vec<_> = out.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(names, vec!["blk0.q.w", "blk0.q.b"]);
    }
}
