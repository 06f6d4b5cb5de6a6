//! Canonical Polyadic (CP / PARAFAC) decomposition via alternating least
//! squares.
//!
//! The paper's related work (Phan et al. \[34\]) compares CP against Tucker
//! for model compression; this module provides the comparator so the
//! workspace can ablate the two decompositions on the same weight tensors.
//! A rank-`R` CP decomposition expresses an order-3 tensor as a sum of `R`
//! rank-one terms:
//!
//! ```text
//! T(i, j, k) ≈ Σ_r λ_r · A(i, r) · B(j, r) · C(k, r)
//! ```

use crate::matmul::{matmul, matmul_transa};
use crate::qr::qr_thin;
use crate::rng::Rng64;
use crate::{Tensor, TensorError};

/// A rank-`R` CP decomposition of an order-3 tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Cp {
    /// Component weights λ, length `R`.
    pub lambda: Vec<f32>,
    /// Mode factor matrices `(n_mode × R)`, one per mode.
    pub factors: [Tensor; 3],
}

impl Cp {
    /// The decomposition rank.
    pub fn rank(&self) -> usize {
        self.lambda.len()
    }

    /// Number of stored parameters.
    pub fn param_count(&self) -> usize {
        self.lambda.len() + self.factors.iter().map(Tensor::len).sum::<usize>()
    }

    /// Reconstructs the full tensor.
    pub fn reconstruct(&self) -> Tensor {
        let (n1, n2, n3) = (
            self.factors[0].rows(),
            self.factors[1].rows(),
            self.factors[2].rows(),
        );
        let r = self.rank();
        let mut out = Tensor::zeros(&[n1, n2, n3]);
        let a = &self.factors[0];
        let b = &self.factors[1];
        let c = &self.factors[2];
        for i in 0..n1 {
            for j in 0..n2 {
                for k in 0..n3 {
                    let mut acc = 0.0f32;
                    for rr in 0..r {
                        acc +=
                            self.lambda[rr] * a.get(&[i, rr]) * b.get(&[j, rr]) * c.get(&[k, rr]);
                    }
                    out.set(&[i, j, k], acc);
                }
            }
        }
        out
    }

    /// Relative reconstruction error against the original tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn relative_error(&self, original: &Tensor) -> f32 {
        let rec = self.reconstruct();
        // lrd-lint: allow(no-panic, "documented `# Panics` contract: comparing against a differently-shaped original is a caller bug")
        let diff = original.sub(&rec).expect("relative_error: shape mismatch");
        let denom = original.frobenius_norm();
        if denom == 0.0 {
            rec.frobenius_norm()
        } else {
            diff.frobenius_norm() / denom
        }
    }
}

/// Options for the ALS iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpOptions {
    /// Maximum ALS sweeps.
    pub max_iters: usize,
    /// Stop when the fit improves by less than this.
    pub tol: f32,
    /// Seed for the random factor initialization.
    pub seed: u64,
}

impl Default for CpOptions {
    fn default() -> Self {
        CpOptions {
            max_iters: 60,
            tol: 1e-6,
            seed: 0x5EED,
        }
    }
}

/// Khatri–Rao product (column-wise Kronecker): `(m·n) × R` from `m × R` and
/// `n × R`.
fn khatri_rao(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, r) = (a.rows(), a.cols());
    let n = b.rows();
    assert_eq!(b.cols(), r, "khatri_rao rank mismatch");
    let mut out = Tensor::zeros(&[m * n, r]);
    for i in 0..m {
        for j in 0..n {
            let row = i * n + j;
            for rr in 0..r {
                out.set(&[row, rr], a.get(&[i, rr]) * b.get(&[j, rr]));
            }
        }
    }
    out
}

/// Solves the small `R × R` normal-equation system `G · X = Y` per column
/// via Gaussian elimination with partial pivoting (with Tikhonov damping
/// for near-singular Gram matrices).
fn solve_gram(g: &Tensor, y: &Tensor) -> Tensor {
    let r = g.rows();
    let cols = y.cols();
    // Damped copy.
    let mut a: Vec<f64> = g.data().iter().map(|&x| x as f64).collect();
    let trace: f64 = (0..r).map(|i| a[i * r + i]).sum();
    let damp = 1e-9 * (trace / r as f64).max(1e-30);
    for i in 0..r {
        a[i * r + i] += damp;
    }
    let mut rhs: Vec<f64> = y.data().iter().map(|&x| x as f64).collect();
    // Forward elimination.
    for col in 0..r {
        // Pivot.
        let mut piv = col;
        for row in (col + 1)..r {
            if a[row * r + col].abs() > a[piv * r + col].abs() {
                piv = row;
            }
        }
        if piv != col {
            for j in 0..r {
                a.swap(col * r + j, piv * r + j);
            }
            for j in 0..cols {
                rhs.swap(col * cols + j, piv * cols + j);
            }
        }
        let diag = a[col * r + col];
        if diag.abs() < 1e-30 {
            continue;
        }
        for row in (col + 1)..r {
            let f = a[row * r + col] / diag;
            if f == 0.0 {
                continue;
            }
            for j in col..r {
                a[row * r + j] -= f * a[col * r + j];
            }
            for j in 0..cols {
                rhs[row * cols + j] -= f * rhs[col * cols + j];
            }
        }
    }
    // Back substitution.
    let mut x = vec![0.0f64; r * cols];
    for row in (0..r).rev() {
        for j in 0..cols {
            let mut acc = rhs[row * cols + j];
            for k in (row + 1)..r {
                acc -= a[row * r + k] * x[k * cols + j];
            }
            let diag = a[row * r + row];
            x[row * cols + j] = if diag.abs() < 1e-30 { 0.0 } else { acc / diag };
        }
    }
    Tensor::from_vec(&[r, cols], x.into_iter().map(|v| v as f32).collect())
}

/// Element-wise (Hadamard) product of two matrices.
fn hadamard(a: &Tensor, b: &Tensor) -> Tensor {
    // lrd-lint: allow(no-panic, "ALS only multiplies r×r Gram matrices of the same rank; a mismatch is an internal bug")
    a.zip(b, |x, y| x * y).expect("hadamard shape mismatch")
}

/// Rank-`rank` CP decomposition of an order-3 tensor via ALS.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if the tensor is not order-3 or
/// [`TensorError::InvalidRank`] if `rank` is zero.
pub fn cp_als(t: &Tensor, rank: usize, opts: CpOptions) -> Result<Cp, TensorError> {
    if t.shape().order() != 3 {
        return Err(TensorError::InvalidArgument(format!(
            "cp_als expects an order-3 tensor, got order {}",
            t.shape().order()
        )));
    }
    if rank == 0 {
        return Err(TensorError::InvalidRank {
            rank: 0,
            max: t.dims().iter().copied().max().unwrap_or(0),
        });
    }
    let dims = [t.dims()[0], t.dims()[1], t.dims()[2]];
    let mut rng = Rng64::new(opts.seed);
    // Random orthonormal-ish init keeps early iterations well conditioned.
    let mut factors: [Tensor; 3] = [
        init_factor(dims[0], rank, &mut rng),
        init_factor(dims[1], rank, &mut rng),
        init_factor(dims[2], rank, &mut rng),
    ];
    let unfoldings = [t.unfold(0), t.unfold(1), t.unfold(2)];
    let t_norm = t.frobenius_norm();
    let mut lambda = vec![1.0f32; rank];
    let mut prev_fit = f32::NEG_INFINITY;

    for _iter in 0..opts.max_iters {
        for mode in 0..3 {
            let (m1, m2) = match mode {
                0 => (&factors[1], &factors[2]),
                1 => (&factors[0], &factors[2]),
                _ => (&factors[0], &factors[1]),
            };
            // X_(mode) · KhatriRao ordering must match the unfolding's
            // column order (other modes in increasing order).
            let kr = khatri_rao(m1, m2);
            let mttkrp = matmul(&unfoldings[mode], &kr); // n_mode × R
            let gram = hadamard(&matmul_transa(m1, m1), &matmul_transa(m2, m2));
            // Solve gram · Fᵀ = mttkrpᵀ  →  F = mttkrp · gram⁻¹.
            let ft = solve_gram(&gram, &mttkrp.transpose());
            let mut f = ft.transpose();
            // Normalize columns into λ.
            for (rr, lam) in lambda.iter_mut().enumerate() {
                let norm = (0..dims[mode])
                    .map(|i| f.get(&[i, rr]).powi(2))
                    .sum::<f32>()
                    .sqrt();
                *lam = norm;
                if norm > 1e-20 {
                    for i in 0..dims[mode] {
                        let v = f.get(&[i, rr]) / norm;
                        f.set(&[i, rr], v);
                    }
                }
            }
            factors[mode] = f;
        }
        // λ currently reflects the last-updated mode's scale.
        let cp = Cp {
            lambda: lambda.clone(),
            factors: factors.clone(),
        };
        let err = cp.relative_error(t);
        let fit = 1.0 - err;
        if (fit - prev_fit).abs() < opts.tol {
            break;
        }
        prev_fit = fit;
        let _ = t_norm;
    }

    Ok(Cp { lambda, factors })
}

fn init_factor(n: usize, rank: usize, rng: &mut Rng64) -> Tensor {
    if rank <= n {
        qr_thin(&Tensor::randn(&[n, rank], rng)).0
    } else {
        Tensor::randn(&[n, rank], rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank_one_tensor() -> Tensor {
        // T = a ⊗ b ⊗ c.
        let a = [1.0f32, 2.0, -1.0];
        let b = [0.5f32, -1.5, 2.0, 1.0];
        let c = [3.0f32, 1.0];
        let mut t = Tensor::zeros(&[3, 4, 2]);
        for (i, &av) in a.iter().enumerate() {
            for (j, &bv) in b.iter().enumerate() {
                for (k, &cv) in c.iter().enumerate() {
                    t.set(&[i, j, k], av * bv * cv);
                }
            }
        }
        t
    }

    #[test]
    fn recovers_rank_one_exactly() {
        let t = rank_one_tensor();
        let cp = cp_als(&t, 1, CpOptions::default()).unwrap();
        assert!(
            cp.relative_error(&t) < 1e-3,
            "error {}",
            cp.relative_error(&t)
        );
    }

    #[test]
    fn error_decreases_with_rank() {
        let mut rng = Rng64::new(3);
        let t = Tensor::randn(&[5, 6, 4], &mut rng);
        let mut prev = f32::INFINITY;
        for r in [1usize, 2, 4, 8] {
            let cp = cp_als(&t, r, CpOptions::default()).unwrap();
            let e = cp.relative_error(&t);
            assert!(e <= prev + 0.05, "rank {r}: {e} vs prev {prev}");
            prev = e;
        }
    }

    #[test]
    fn recovers_known_rank_two() {
        // Sum of two separable terms.
        let mut rng = Rng64::new(4);
        let mk = |n: usize, rng: &mut Rng64| Tensor::randn(&[n, 2], rng);
        let (a, b, c) = (mk(6, &mut rng), mk(5, &mut rng), mk(4, &mut rng));
        let truth = Cp {
            lambda: vec![2.0, 0.7],
            factors: [a, b, c],
        }
        .reconstruct();
        let cp = cp_als(
            &truth,
            2,
            CpOptions {
                max_iters: 200,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            cp.relative_error(&truth) < 0.02,
            "error {}",
            cp.relative_error(&truth)
        );
    }

    #[test]
    fn param_count() {
        let t = rank_one_tensor();
        let cp = cp_als(&t, 2, CpOptions::default()).unwrap();
        assert_eq!(cp.param_count(), 2 + 2 * (3 + 4 + 2));
        assert_eq!(cp.rank(), 2);
    }

    #[test]
    fn rejects_bad_inputs() {
        let m = Tensor::zeros(&[3, 3]);
        assert!(cp_als(&m, 1, CpOptions::default()).is_err());
        let t = Tensor::zeros(&[2, 2, 2]);
        assert!(cp_als(&t, 0, CpOptions::default()).is_err());
    }

    #[test]
    fn khatri_rao_shape_and_values() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[2, 2], vec![5.0, 6.0, 7.0, 8.0]);
        let kr = khatri_rao(&a, &b);
        assert_eq!(kr.dims(), &[4, 2]);
        // Row (i=0, j=0): [1*5, 2*6].
        assert_eq!(kr.row(0), &[5.0, 12.0]);
        // Row (i=1, j=1): [3*7, 4*8].
        assert_eq!(kr.row(3), &[21.0, 32.0]);
    }

    #[test]
    fn gram_solver_solves_identity() {
        let g = Tensor::eye(3);
        let y = Tensor::from_vec(&[3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let x = solve_gram(&g, &y);
        assert!(x.approx_eq(&y, 1e-5));
    }

    #[test]
    fn gram_solver_matches_known_system() {
        // G = [[2,1],[1,3]], X = [[1],[2]] → Y = [[4],[7]].
        let g = Tensor::from_vec(&[2, 2], vec![2.0, 1.0, 1.0, 3.0]);
        let y = Tensor::from_vec(&[2, 1], vec![4.0, 7.0]);
        let x = solve_gram(&g, &y);
        assert!((x.get(&[0, 0]) - 1.0).abs() < 1e-4);
        assert!((x.get(&[1, 0]) - 2.0).abs() < 1e-4);
    }
}
