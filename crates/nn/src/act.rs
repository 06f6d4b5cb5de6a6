//! Activation functions, softmax and the cross-entropy loss, each with an
//! exact backward pass.

use lrd_tensor::exp::exp_inplace;
use lrd_tensor::Tensor;

/// GELU (tanh approximation, as used by BERT).
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/π)
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

/// Derivative of [`gelu`].
pub fn gelu_grad(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = 0.044715 * x * x * x;
    let t = (C * (x + x3)).tanh();
    let dt = (1.0 - t * t) * C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * dt
}

/// `e^{-x}` element-wise, through the slice `exp` kernel.
fn neg_exp(x: &Tensor) -> Tensor {
    let mut e = x.map(|v| -v);
    exp_inplace(e.data_mut());
    e
}

/// SwiGLU's gated activation `silu(g) · u = (g · σ(g)) · u`, element-wise
/// (Llama's MLP), with `σ(g) = 1 / (1 + e^{-g})`.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn swiglu(gate: &Tensor, up: &Tensor) -> Tensor {
    assert_eq!(gate.dims(), up.dims(), "swiglu shape mismatch");
    let mut h = neg_exp(gate);
    for ((h, &g), &u) in h.data_mut().iter_mut().zip(gate.data()).zip(up.data()) {
        *h = g * (1.0 / (1.0 + *h)) * u;
    }
    h
}

/// Backward pass of [`swiglu`]: given upstream `dh`, returns
/// `(dgate, dup) = ((dh · u) · silu'(g), dh · silu(g))`, where
/// `silu'(g) = σ(g) · (1 + g · (1 − σ(g)))`.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn swiglu_backward(gate: &Tensor, up: &Tensor, dh: &Tensor) -> (Tensor, Tensor) {
    assert_eq!(gate.dims(), up.dims(), "swiglu backward shape mismatch");
    assert_eq!(gate.dims(), dh.dims(), "swiglu backward shape mismatch");
    let mut dgate = neg_exp(gate);
    let mut dup = Tensor::zeros(gate.dims());
    let inputs = gate.data().iter().zip(up.data()).zip(dh.data());
    for ((dg, du), ((&g, &u), &d)) in dgate.data_mut().iter_mut().zip(dup.data_mut()).zip(inputs) {
        let s = 1.0 / (1.0 + *dg);
        *du = d * (g * s);
        *dg = (d * u) * (s * (1.0 + g * (1.0 - s)));
    }
    (dgate, dup)
}

/// Row-wise numerically-stable softmax of a matrix.
///
/// # Panics
///
/// Panics if `x` is not order-2.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let mut out = shifted_by_row_max(x).0;
    exp_inplace(out.data_mut());
    for i in 0..out.rows() {
        let orow = out.row_mut(i);
        let inv = 1.0 / orow.iter().fold(0.0f32, |a, &e| a + e);
        for v in orow {
            *v *= inv;
        }
    }
    out
}

/// `x[i][j] − max_j x[i][j]` for every row, and each row's max.
fn shifted_by_row_max(x: &Tensor) -> (Tensor, Vec<f32>) {
    let mut out = Tensor::zeros(&[x.rows(), x.cols()]);
    let mut maxes = Vec::with_capacity(x.rows());
    for i in 0..x.rows() {
        let row = x.row(i);
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        for (o, &v) in out.row_mut(i).iter_mut().zip(row) {
            *o = v - max;
        }
        maxes.push(max);
    }
    (out, maxes)
}

/// Backward pass of row-wise softmax: given probabilities `p` and upstream
/// gradient `dp`, returns the gradient w.r.t. the logits.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn softmax_rows_backward(p: &Tensor, dp: &Tensor) -> Tensor {
    assert_eq!(p.dims(), dp.dims(), "softmax backward shape mismatch");
    let (m, n) = (p.rows(), p.cols());
    let mut dx = Tensor::zeros(&[m, n]);
    for i in 0..m {
        let prow = p.row(i);
        let drow = dp.row(i);
        let dot: f32 = prow.iter().zip(drow).map(|(&a, &b)| a * b).sum();
        let xrow = dx.row_mut(i);
        for j in 0..n {
            xrow[j] = prow[j] * (drow[j] - dot);
        }
    }
    dx
}

/// Target value marking a position excluded from the loss.
pub const IGNORE_INDEX: usize = usize::MAX;

/// Mean cross-entropy of row-wise logits against integer targets, and the
/// gradient w.r.t. the logits.
///
/// Rows whose target is [`IGNORE_INDEX`] contribute neither loss nor
/// gradient — used to mask prompt tokens during fine-tuning.
///
/// # Panics
///
/// Panics if `targets.len() != logits.rows()` or a target is out of range.
pub fn cross_entropy(logits: &Tensor, targets: &[usize]) -> (f32, Tensor) {
    let (m, v) = (logits.rows(), logits.cols());
    assert_eq!(m, targets.len(), "cross_entropy target count mismatch");
    let probs = softmax_rows(logits);
    let mut dlogits = Tensor::zeros(&[m, v]);
    let mut loss = 0.0f64;
    let mut counted = 0usize;
    for (i, &t) in targets.iter().enumerate() {
        if t == IGNORE_INDEX {
            continue;
        }
        assert!(t < v, "target {t} out of vocabulary range {v}");
        counted += 1;
        loss -= (probs.get(&[i, t]).max(1e-12) as f64).ln();
    }
    let scale = if counted > 0 {
        1.0 / counted as f32
    } else {
        0.0
    };
    for (i, &t) in targets.iter().enumerate() {
        if t == IGNORE_INDEX {
            continue;
        }
        let prow = probs.row(i).to_vec();
        let drow = dlogits.row_mut(i);
        for j in 0..v {
            drow[j] = scale * (prow[j] - if j == t { 1.0 } else { 0.0 });
        }
    }
    let mean = if counted > 0 {
        loss as f32 / counted as f32
    } else {
        0.0
    };
    (mean, dlogits)
}

/// Row-wise log-softmax (for log-likelihood scoring).
pub fn log_softmax_rows(x: &Tensor) -> Tensor {
    let (mut out, maxes) = shifted_by_row_max(x);
    exp_inplace(out.data_mut());
    for (i, &max) in maxes.iter().enumerate() {
        let lse = max + out.row(i).iter().sum::<f32>().ln();
        for (o, &v) in out.row_mut(i).iter_mut().zip(x.row(i)) {
            *o = v - lse;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff(f: impl Fn(f32) -> f32, x: f32) -> f32 {
        let h = 1e-3;
        (f(x + h) - f(x - h)) / (2.0 * h)
    }

    #[test]
    fn gelu_matches_finite_difference() {
        for &x in &[-3.0f32, -1.0, -0.1, 0.0, 0.5, 2.0] {
            let fd = finite_diff(gelu, x);
            assert!(
                (gelu_grad(x) - fd).abs() < 1e-2,
                "x={x}: {} vs {fd}",
                gelu_grad(x)
            );
        }
    }

    #[test]
    fn silu_matches_finite_difference() {
        // With u = 1 and dh = 1, swiglu is silu and dgate is silu'.
        let silu = |x: f32| {
            swiglu(
                &Tensor::from_vec(&[1, 1], vec![x]),
                &Tensor::full(&[1, 1], 1.0),
            )
            .data()[0]
        };
        for &x in &[-4.0f32, -1.0, 0.0, 1.0, 3.0] {
            let one = Tensor::full(&[1, 1], 1.0);
            let (dgate, dup) = swiglu_backward(&Tensor::from_vec(&[1, 1], vec![x]), &one, &one);
            let fd = finite_diff(silu, x);
            assert!((dgate.data()[0] - fd).abs() < 1e-2);
            assert_eq!(dup.data()[0], silu(x));
        }
    }

    #[test]
    fn gelu_limits() {
        assert!(gelu(10.0) > 9.99);
        assert!(gelu(-10.0).abs() < 1e-3);
        assert_eq!(gelu(0.0), 0.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let p = softmax_rows(&x);
        for i in 0..2 {
            let s: f32 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        // Monotone in logits.
        assert!(p.get(&[0, 2]) > p.get(&[0, 1]));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_vec(&[1, 3], vec![1.0, 2.0, 3.0]);
        let y = x.map(|v| v + 100.0);
        assert!(softmax_rows(&x).approx_eq(&softmax_rows(&y), 1e-5));
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let x = Tensor::from_vec(&[1, 4], vec![0.5, -0.2, 0.1, 0.9]);
        let dp = Tensor::from_vec(&[1, 4], vec![1.0, -0.5, 0.2, 0.3]);
        let dx = softmax_rows_backward(&softmax_rows(&x), &dp);
        let h = 1e-3;
        for j in 0..4 {
            let mut xp = x.clone();
            xp.set(&[0, j], x.get(&[0, j]) + h);
            let mut xm = x.clone();
            xm.set(&[0, j], x.get(&[0, j]) - h);
            let f = |t: &Tensor| -> f32 { softmax_rows(t).dot(&dp) };
            let fd = (f(&xp) - f(&xm)) / (2.0 * h);
            assert!((dx.get(&[0, j]) - fd).abs() < 1e-3, "j={j}");
        }
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_small() {
        let mut logits = Tensor::zeros(&[2, 4]);
        logits.set(&[0, 1], 20.0);
        logits.set(&[1, 3], 20.0);
        let (loss, _) = cross_entropy(&logits, &[1, 3]);
        assert!(loss < 1e-3);
    }

    #[test]
    fn cross_entropy_uniform_is_log_v() {
        let logits = Tensor::zeros(&[1, 8]);
        let (loss, _) = cross_entropy(&logits, &[3]);
        assert!((loss - (8.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_grad_matches_finite_difference() {
        let logits = Tensor::from_vec(&[2, 3], vec![0.2, -0.4, 0.6, 1.0, 0.1, -0.3]);
        let targets = [2usize, 0];
        let (_, grad) = cross_entropy(&logits, &targets);
        let h = 1e-3;
        for i in 0..2 {
            for j in 0..3 {
                let mut lp = logits.clone();
                lp.set(&[i, j], logits.get(&[i, j]) + h);
                let mut lm = logits.clone();
                lm.set(&[i, j], logits.get(&[i, j]) - h);
                let fd =
                    (cross_entropy(&lp, &targets).0 - cross_entropy(&lm, &targets).0) / (2.0 * h);
                assert!((grad.get(&[i, j]) - fd).abs() < 1e-3, "({i},{j})");
            }
        }
    }

    #[test]
    fn cross_entropy_ignores_masked_rows() {
        let logits = Tensor::from_vec(&[2, 3], vec![5.0, 0.0, 0.0, 0.0, 5.0, 0.0]);
        let (loss_both, _) = cross_entropy(&logits, &[0, 1]);
        let (loss_one, grad) = cross_entropy(&logits, &[0, IGNORE_INDEX]);
        assert!((loss_both - loss_one).abs() < 1e-6);
        assert!(grad.row(1).iter().all(|&g| g == 0.0));
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let x = Tensor::from_vec(&[1, 5], vec![0.3, -1.0, 2.0, 0.0, 1.0]);
        let ls = log_softmax_rows(&x);
        let p = softmax_rows(&x);
        for j in 0..5 {
            assert!((ls.get(&[0, j]).exp() - p.get(&[0, j])).abs() < 1e-5);
        }
    }
}
