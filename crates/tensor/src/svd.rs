//! Truncated singular value decomposition.
//!
//! Two engines are provided:
//!
//! * **One-sided Jacobi** ([`svd_jacobi`]) — high-accuracy full SVD, used for
//!   small/medium matrices and as the base-case solver.
//! * **Randomized subspace iteration** ([`truncated_svd`] for large inputs) —
//!   Halko–Martinsson–Tropp sketching with power iterations, used when only a
//!   small leading rank is needed from a large weight matrix (the common case
//!   when rank-pruning transformer weights).
//!
//! Both are deterministic: the randomized path derives its sketch from a
//! seed computed from the problem dimensions.

use crate::matmul::{matmul, matmul_transa, matmul_transb};
use crate::qr::qr_thin;
use crate::rng::Rng64;
use crate::{Tensor, TensorError};

/// A (possibly truncated) singular value decomposition `a ≈ u · diag(s) · vt`.
#[derive(Debug, Clone, PartialEq)]
pub struct Svd {
    /// Left singular vectors, `m × k`.
    pub u: Tensor,
    /// Singular values in non-increasing order, length `k`.
    pub s: Vec<f32>,
    /// Right singular vectors transposed, `k × n`.
    pub vt: Tensor,
}

impl Svd {
    /// The retained rank `k`.
    pub fn rank(&self) -> usize {
        self.s.len()
    }

    /// Reconstructs the (approximated) matrix `u · diag(s) · vt`.
    pub fn reconstruct(&self) -> Tensor {
        let k = self.rank();
        let m = self.u.rows();
        // Scale columns of u by s, then multiply by vt.
        let mut us = Tensor::zeros(&[m, k]);
        for i in 0..m {
            for j in 0..k {
                us.set(&[i, j], self.u.get(&[i, j]) * self.s[j]);
            }
        }
        matmul(&us, &self.vt)
    }

    /// Returns a copy truncated to the leading `k` singular triplets.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidRank`] if `k` is zero or exceeds the
    /// stored rank.
    pub fn truncate(&self, k: usize) -> Result<Svd, TensorError> {
        if k == 0 || k > self.rank() {
            return Err(TensorError::InvalidRank {
                rank: k,
                max: self.rank(),
            });
        }
        let m = self.u.rows();
        let n = self.vt.cols();
        let mut u = Tensor::zeros(&[m, k]);
        for i in 0..m {
            for j in 0..k {
                u.set(&[i, j], self.u.get(&[i, j]));
            }
        }
        let mut vt = Tensor::zeros(&[k, n]);
        for i in 0..k {
            vt.row_mut(i).copy_from_slice(self.vt.row(i));
        }
        Ok(Svd {
            u,
            s: self.s[..k].to_vec(),
            vt,
        })
    }
}

/// Maximum Jacobi sweeps before declaring non-convergence.
const MAX_SWEEPS: usize = 60;

/// Convergence threshold on normalized off-diagonal inner products.
const JACOBI_EPS: f64 = 1e-12;

/// Full SVD via one-sided Jacobi rotations.
///
/// Accurate to near machine precision for well-conditioned inputs; intended
/// for matrices up to a few hundred rows/columns.
///
/// The work matrix and `v` are stored column-major, so every Gram dot
/// product and every rotation runs at unit stride. Each pair's Gram
/// entries come from one fused pass, and two exact memos skip work whose
/// result is already known: a column's squared norm is reused until the
/// column is rotated, and a pair found settled is not revisited while
/// neither of its columns has been rotated since. Neither memo changes the
/// arithmetic — the same inputs always give the same bits — so the
/// factors equal the plain cyclic sweep's bit for bit (DESIGN.md, "Jacobi
/// SVD engine").
///
/// # Errors
///
/// Returns [`TensorError::NotConverged`] if the sweep budget is exhausted
/// (does not happen for finite inputs in practice).
///
/// # Panics
///
/// Panics if `a` is not order-2.
pub fn svd_jacobi(a: &Tensor) -> Result<Svd, TensorError> {
    let (m, n) = (a.rows(), a.cols());
    if m < n {
        // Work on the transpose and swap factors.
        let t = svd_jacobi(&a.transpose())?;
        return Ok(Svd {
            u: t.vt.transpose(),
            s: t.s,
            vt: t.u.transpose(),
        });
    }
    let (work, v) = jacobi_sweeps(a)?;

    // Singular values = column norms; left vectors = normalized columns.
    let col = |j: usize| &work[j * m..(j + 1) * m];
    let mut triples: Vec<(f64, usize)> = (0..n)
        .map(|j| (col(j).iter().map(|x| x * x).sum::<f64>().sqrt(), j))
        .collect();
    triples.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));

    let mut u = Tensor::zeros(&[m, n]);
    let mut s_out = Vec::with_capacity(n);
    let mut vt = Tensor::zeros(&[n, n]);
    for (out_j, &(sigma, j)) in triples.iter().enumerate() {
        s_out.push(sigma as f32);
        if sigma > 0.0 {
            for (row, &x) in u.data_mut().chunks_exact_mut(n).zip(col(j)) {
                row[out_j] = (x / sigma) as f32;
            }
        }
        for (out, &x) in vt.row_mut(out_j).iter_mut().zip(&v[j * n..(j + 1) * n]) {
            *out = x as f32;
        }
    }
    Ok(Svd { u, s: s_out, vt })
}

/// The sweep phase of [`svd_jacobi`] for an `m × n` input with `m ≥ n`:
/// returns the rotated columns (`m × n`) and the accumulated right
/// rotations (`n × n`), both column-major (column `j` of an `r`-row
/// matrix at `[j*r..(j+1)*r]`).
fn jacobi_sweeps(a: &Tensor) -> Result<(Vec<f64>, Vec<f64>), TensorError> {
    let (m, n) = (a.rows(), a.cols());
    // Count only the executing orientation (svd_jacobi's m<n wrapper
    // recurses).
    lrd_trace::counters::add(lrd_trace::Counter::SvdJacobiCalls, 1);
    // Columns of `work` are rotated until mutually orthogonal.
    let mut work = vec![0.0f64; m * n];
    for (i, row) in a.data().chunks_exact(n).enumerate() {
        for (j, &x) in row.iter().enumerate() {
            work[j * m + i] = x as f64;
        }
    }
    // Accumulate right rotations into v.
    let mut v = vec![0.0f64; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    // Squared norm of each column, valid until the column is rotated.
    let mut norm2: Vec<Option<f64>> = vec![None; n];
    // Rotations applied to each column so far, and for each pair (p, q)
    // the two counts it was last found settled at.
    let mut rotations = vec![0usize; n];
    let mut settled: Vec<Option<(usize, usize)>> = vec![None; n * n];

    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        lrd_trace::counters::add(lrd_trace::Counter::SvdJacobiSweeps, 1);
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                if settled[p * n + q] == Some((rotations[p], rotations[q])) {
                    continue;
                }
                let (wp, wq) = (&work[p * m..(p + 1) * m], &work[q * m..(q + 1) * m]);
                let (app, aqq, apq) = match (norm2[p], norm2[q]) {
                    (Some(app), Some(aqq)) => (app, aqq, dot(wp, wq)),
                    _ => gram(wp, wq),
                };
                if apq.abs() <= JACOBI_EPS * (app * aqq).sqrt().max(f64::MIN_POSITIVE) {
                    norm2[p] = Some(app);
                    norm2[q] = Some(aqq);
                    settled[p * n + q] = Some((rotations[p], rotations[q]));
                    continue;
                }
                off = off.max(apq.abs() / (app * aqq).sqrt().max(f64::MIN_POSITIVE));
                // Jacobi rotation zeroing the (p,q) entry of the implicit
                // Gram matrix.
                let tau = (aqq - app) / (2.0 * apq);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                let (lo, hi) = work.split_at_mut(q * m);
                rotate(&mut lo[p * m..(p + 1) * m], &mut hi[..m], c, s);
                let (lo, hi) = v.split_at_mut(q * n);
                rotate(&mut lo[p * n..(p + 1) * n], &mut hi[..n], c, s);
                rotations[p] += 1;
                rotations[q] += 1;
                norm2[p] = None;
                norm2[q] = None;
            }
        }
        if off < 1e-10 {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(TensorError::NotConverged {
            algorithm: "jacobi-svd",
            iterations: MAX_SWEEPS,
        });
    }
    Ok((work, v))
}

/// `Σ x_i·y_i` accumulated in index order from `0.0`: the one summation
/// order every Gram entry uses, so recomputing an entry over unchanged
/// columns reproduces it bit for bit.
fn dot(x: &[f64], y: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (a, b) in x.iter().zip(y) {
        acc += a * b;
    }
    acc
}

/// `(x·x, y·y, x·y)` in one pass: three independent chains, each with
/// [`dot`]'s operation order, so each equals its own [`dot`] call.
fn gram(x: &[f64], y: &[f64]) -> (f64, f64, f64) {
    let (mut xx, mut yy, mut xy) = (0.0, 0.0, 0.0);
    for (a, b) in x.iter().zip(y) {
        xx += a * a;
        yy += b * b;
        xy += a * b;
    }
    (xx, yy, xy)
}

/// Applies the plane rotation `(xp, xq) ← (c·xp − s·xq, s·xp + c·xq)`
/// element-wise to two columns.
fn rotate(xp: &mut [f64], xq: &mut [f64], c: f64, s: f64) {
    for (a, b) in xp.iter_mut().zip(xq) {
        let (wp, wq) = (*a, *b);
        *a = c * wp - s * wq;
        *b = s * wp + c * wq;
    }
}

/// Size threshold below which [`truncated_svd`] uses the Jacobi engine
/// directly.
const JACOBI_DIRECT_LIMIT: usize = 96;

/// Oversampling columns for the randomized sketch.
const OVERSAMPLE: usize = 8;

/// Power iterations for the randomized sketch (improves spectral separation).
const POWER_ITERS: usize = 2;

/// Checks every value yielded by `values` for NaN/±∞.
///
/// # Errors
///
/// Returns [`TensorError::NonFinite`] naming `op` on the first non-finite
/// value. Used as the numeric-health guard at decomposition boundaries: a
/// poisoned factor must surface as a structured error, never silently
/// corrupt downstream accuracy numbers.
pub fn ensure_finite<'a>(
    op: &'static str,
    values: impl IntoIterator<Item = &'a f32>,
) -> Result<(), TensorError> {
    if values.into_iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(TensorError::NonFinite { op })
    }
}

/// Rank-`k` truncated SVD of `a`.
///
/// Chooses between exact Jacobi (small matrices) and randomized subspace
/// iteration (large matrices) automatically. Deterministic for a given input
/// shape and rank. Both the input and the computed factors are guarded for
/// numeric health: non-finite values yield [`TensorError::NonFinite`]
/// instead of a silently poisoned factorization.
///
/// # Errors
///
/// Returns [`TensorError::InvalidRank`] if `k` is zero or exceeds
/// `min(m, n)`, [`TensorError::NotConverged`] if the base solver fails, or
/// [`TensorError::NonFinite`] if the input or a computed factor contains
/// NaN/±∞.
///
/// # Example
///
/// ```
/// use lrd_tensor::{rng::Rng64, svd::truncated_svd, Tensor};
///
/// # fn main() -> Result<(), lrd_tensor::TensorError> {
/// let mut rng = Rng64::new(11);
/// let a = Tensor::randn(&[40, 30], &mut rng);
/// let svd = truncated_svd(&a, 5)?;
/// assert_eq!(svd.rank(), 5);
/// # Ok(())
/// # }
/// ```
pub fn truncated_svd(a: &Tensor, k: usize) -> Result<Svd, TensorError> {
    let (m, n) = (a.rows(), a.cols());
    let min_dim = m.min(n);
    if k == 0 || k > min_dim {
        return Err(TensorError::InvalidRank {
            rank: k,
            max: min_dim,
        });
    }
    ensure_finite("truncated_svd input", a.data())?;
    let svd = if min_dim <= JACOBI_DIRECT_LIMIT || k * 2 >= min_dim {
        svd_jacobi(a)?.truncate(k)?
    } else {
        randomized_svd(a, k)?
    };
    ensure_finite("truncated_svd factors", svd.u.data())?;
    ensure_finite(
        "truncated_svd singular values",
        svd.s.iter().chain(svd.vt.data()),
    )?;
    Ok(svd)
}

/// Randomized truncated SVD (Halko et al. 2011) with power iteration.
fn randomized_svd(a: &Tensor, k: usize) -> Result<Svd, TensorError> {
    lrd_trace::counters::add(lrd_trace::Counter::SvdRandomizedCalls, 1);
    let (m, n) = (a.rows(), a.cols());
    let l = (k + OVERSAMPLE).min(m.min(n));
    // Deterministic sketch seed derived from problem dimensions.
    let mut rng = Rng64::new(0xC0FF_EE00 ^ ((m as u64) << 32) ^ ((n as u64) << 8) ^ k as u64);
    let omega = Tensor::randn(&[n, l], &mut rng);
    // Y = A Ω, then power iterations with re-orthogonalization.
    let mut y = matmul(a, &omega);
    for _ in 0..POWER_ITERS {
        let (q, _) = qr_thin(&y);
        let z = matmul_transa(a, &q); // n × l
        let (qz, _) = qr_thin(&z);
        y = matmul(a, &qz);
    }
    let (q, _) = qr_thin(&y); // m × l
    let b = matmul_transa(&q, a); // l × n
    let small = svd_jacobi(&b)?;
    let truncated = small.truncate(k)?;
    Ok(Svd {
        u: matmul(&q, &truncated.u),
        s: truncated.s,
        vt: truncated.vt,
    })
}

/// Computes the relative approximation error `‖a − approx‖_F / ‖a‖_F`.
///
/// Returns 0 for a zero matrix approximated by anything with zero error.
pub fn relative_error(a: &Tensor, approx: &Tensor) -> f32 {
    let denom = a.frobenius_norm();
    if denom == 0.0 {
        return approx.frobenius_norm();
    }
    // lrd-lint: allow(no-panic, "an approximation shaped unlike its target is a caller bug; no recovery is meaningful")
    let diff = a.sub(approx).expect("relative_error shape mismatch");
    diff.frobenius_norm() / denom
}

/// Builds a matrix with a prescribed singular-value spectrum (useful for
/// tests and for synthesizing weight matrices with LLM-like spectral decay).
pub fn matrix_with_spectrum(m: usize, n: usize, spectrum: &[f32], rng: &mut Rng64) -> Tensor {
    let k = spectrum.len().min(m).min(n);
    let (qu, _) = qr_thin(&Tensor::randn(&[m, k], rng));
    let (qv, _) = qr_thin(&Tensor::randn(&[n, k], rng));
    let mut us = Tensor::zeros(&[m, k]);
    for i in 0..m {
        for (j, &sigma) in spectrum.iter().enumerate().take(k) {
            us.set(&[i, j], qu.get(&[i, j]) * sigma);
        }
    }
    matmul_transb(&us, &qv)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::qr::orthonormality_error;

    // The row-major engine that [`svd_jacobi`] replaced, kept verbatim as
    // the bit-equality oracle for its column-major, memoised rewrite. It is
    // split only where the sweeps end, so tests compare the f64 state
    // before the f32 rounding of the factors can hide a difference.

    /// The reference sweeps for `m ≥ n`: `work` (`m × n`) and `v`
    /// (`n × n`), both row-major.
    fn reference_sweeps(a: &Tensor) -> Result<(Vec<f64>, Vec<f64>), TensorError> {
        let (m, n) = (a.rows(), a.cols());
        lrd_trace::counters::add(lrd_trace::Counter::SvdJacobiCalls, 1);
        // Columns of `work` are rotated until mutually orthogonal.
        let mut work: Vec<f64> = a.data().iter().map(|&x| x as f64).collect();
        // Accumulate right rotations into v (n×n).
        let mut v = vec![0.0f64; n * n];
        for i in 0..n {
            v[i * n + i] = 1.0;
        }

        let col_dot = |w: &[f64], p: usize, q: usize| -> f64 {
            let mut acc = 0.0;
            for i in 0..m {
                acc += w[i * n + p] * w[i * n + q];
            }
            acc
        };

        let mut converged = false;
        for _sweep in 0..MAX_SWEEPS {
            lrd_trace::counters::add(lrd_trace::Counter::SvdJacobiSweeps, 1);
            let mut off = 0.0f64;
            for p in 0..n {
                for q in (p + 1)..n {
                    let app = col_dot(&work, p, p);
                    let aqq = col_dot(&work, q, q);
                    let apq = col_dot(&work, p, q);
                    if apq.abs() <= JACOBI_EPS * (app * aqq).sqrt().max(f64::MIN_POSITIVE) {
                        continue;
                    }
                    off = off.max(apq.abs() / (app * aqq).sqrt().max(f64::MIN_POSITIVE));
                    // Jacobi rotation zeroing the (p,q) entry of the implicit
                    // Gram matrix.
                    let tau = (aqq - app) / (2.0 * apq);
                    let t = if tau >= 0.0 {
                        1.0 / (tau + (1.0 + tau * tau).sqrt())
                    } else {
                        -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    for i in 0..m {
                        let wp = work[i * n + p];
                        let wq = work[i * n + q];
                        work[i * n + p] = c * wp - s * wq;
                        work[i * n + q] = s * wp + c * wq;
                    }
                    for i in 0..n {
                        let vp = v[i * n + p];
                        let vq = v[i * n + q];
                        v[i * n + p] = c * vp - s * vq;
                        v[i * n + q] = s * vp + c * vq;
                    }
                }
            }
            if off < 1e-10 {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(TensorError::NotConverged {
                algorithm: "jacobi-svd",
                iterations: MAX_SWEEPS,
            });
        }
        Ok((work, v))
    }

    /// The reference engine: [`reference_sweeps`] and its finalisation.
    fn svd_jacobi_reference(a: &Tensor) -> Result<Svd, TensorError> {
        let (m, n) = (a.rows(), a.cols());
        if m < n {
            // Work on the transpose and swap factors.
            let t = svd_jacobi_reference(&a.transpose())?;
            return Ok(Svd {
                u: t.vt.transpose(),
                s: t.s,
                vt: t.u.transpose(),
            });
        }
        let (work, v) = reference_sweeps(a)?;

        // Singular values = column norms; left vectors = normalized columns.
        let mut triples: Vec<(f64, usize)> = (0..n)
            .map(|j| {
                let norm = (0..m)
                    .map(|i| work[i * n + j] * work[i * n + j])
                    .sum::<f64>()
                    .sqrt();
                (norm, j)
            })
            .collect();
        triples.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));

        let mut u = Tensor::zeros(&[m, n]);
        let mut s_out = Vec::with_capacity(n);
        let mut vt = Tensor::zeros(&[n, n]);
        for (out_j, &(sigma, j)) in triples.iter().enumerate() {
            s_out.push(sigma as f32);
            if sigma > 0.0 {
                for i in 0..m {
                    u.set(&[i, out_j], (work[i * n + j] / sigma) as f32);
                }
            }
            for i in 0..n {
                vt.set(&[out_j, i], v[i * n + j] as f32);
            }
        }
        Ok(Svd { u, s: s_out, vt })
    }

    /// Asserts `svd_jacobi(a)` equals the reference engine bit for bit:
    /// the f64 sweep state (`work` and `v`, layouts aside), then every
    /// `u`, `s` and `vt` element, or the same error.
    fn assert_matches_reference(a: &Tensor) {
        let dims = a.dims().to_vec();
        let tall = if a.rows() < a.cols() {
            a.transpose()
        } else {
            a.clone()
        };
        match (jacobi_sweeps(&tall), reference_sweeps(&tall)) {
            (Ok((work, v)), Ok((ref_work, ref_v))) => {
                let (m, n) = (tall.rows(), tall.cols());
                // Column-major `[j*r + i]` against row-major `[i*c + j]`.
                let row_major = |x: &[f64], r: usize, c: usize| -> Vec<u64> {
                    (0..r * c)
                        .map(|k| x[(k % c) * r + k / c].to_bits())
                        .collect()
                };
                let bits = |x: &[f64]| x.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    row_major(&work, m, n),
                    bits(&ref_work),
                    "work, input {dims:?}"
                );
                assert_eq!(row_major(&v, n, n), bits(&ref_v), "v, input {dims:?}");
            }
            (got, want) => assert_eq!(got.err(), want.err(), "input {dims:?}"),
        }
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        match (svd_jacobi(a), svd_jacobi_reference(a)) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.u.dims(), want.u.dims(), "u shape, input {dims:?}");
                assert_eq!(got.vt.dims(), want.vt.dims(), "vt shape, input {dims:?}");
                assert_eq!(bits(&got.u), bits(&want.u), "u bits, input {dims:?}");
                let s_bits = |s: &[f32]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(s_bits(&got.s), s_bits(&want.s), "s bits, input {dims:?}");
                assert_eq!(bits(&got.vt), bits(&want.vt), "vt bits, input {dims:?}");
            }
            (got, want) => assert_eq!(got.err(), want.err(), "input {dims:?}"),
        }
    }

    #[test]
    fn jacobi_is_bit_equal_to_reference_on_structured_inputs() {
        let mut rng = Rng64::new(31);
        // m<n, m=n, m>n, and the degenerate single row / single column.
        for (m, n) in [(5, 13), (10, 10), (13, 5), (1, 9), (9, 1), (1, 1)] {
            assert_matches_reference(&Tensor::randn(&[m, n], &mut rng));
        }
        assert_matches_reference(&Tensor::zeros(&[6, 4]));
        assert_matches_reference(&Tensor::zeros(&[3, 7]));
        // Zero columns and duplicate columns: pairs that settle at once
        // and stay settled, which is what the pair memo skips.
        let mut a = Tensor::randn(&[12, 8], &mut rng);
        for i in 0..12 {
            a.set(&[i, 2], 0.0);
            a.set(&[i, 5], 0.0);
            a.set(&[i, 6], a.get(&[i, 1]));
            a.set(&[i, 7], a.get(&[i, 1]));
        }
        assert_matches_reference(&a);
        assert_matches_reference(&a.transpose());
        // Columns 0 and 1 have disjoint supports, so their pair settles in
        // the first sweep; rotations against the dense columns then
        // unsettle it, and it must be evaluated again.
        let mut b = Tensor::randn(&[10, 6], &mut rng);
        for i in 0..10 {
            b.set(&[i, usize::from(i < 5)], 0.0);
        }
        assert_matches_reference(&b);
        // Rank-deficient: three nonzero singular values out of 16.
        let low = matrix_with_spectrum(20, 16, &[9.0, 3.0, 1.0], &mut rng);
        assert_matches_reference(&low);
        assert_matches_reference(&low.transpose());
        assert_matches_reference(&Tensor::eye(7));
    }

    #[test]
    fn jacobi_is_bit_equal_to_reference_at_served_shapes() {
        // The shapes the served tiny-Llama decomposes: attention 40×40,
        // MLP gate/up 112×40 and down 40×112.
        let mut rng = Rng64::new(32);
        for (m, n) in [(40, 40), (112, 40), (40, 112)] {
            assert_matches_reference(&Tensor::randn(&[m, n], &mut rng).scale(0.05));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn jacobi_is_bit_equal_to_reference(
            m in 1usize..24,
            n in 1usize..24,
            seed in proptest::prelude::any::<u64>(),
            structure in 0u64..4,
        ) {
            let mut rng = Rng64::new(seed);
            let mut a = Tensor::randn(&[m, n], &mut rng);
            // 0: plain; 1: a zero column; 2: a duplicated column; 3: rank 1.
            match structure {
                1 => (0..m).for_each(|i| a.set(&[i, n / 2], 0.0)),
                2 => (0..m).for_each(|i| a.set(&[i, n - 1], a.get(&[i, 0]))),
                3 => {
                    let r = Tensor::randn(&[m, 1], &mut rng);
                    let c = Tensor::randn(&[1, n], &mut rng);
                    a = matmul(&r, &c);
                }
                _ => {}
            }
            assert_matches_reference(&a);
        }
    }

    #[test]
    fn jacobi_reconstructs_exactly() {
        let mut rng = Rng64::new(1);
        let a = Tensor::randn(&[12, 8], &mut rng);
        let svd = svd_jacobi(&a).unwrap();
        assert!(relative_error(&a, &svd.reconstruct()) < 1e-5);
    }

    #[test]
    fn jacobi_wide_matrix() {
        let mut rng = Rng64::new(2);
        let a = Tensor::randn(&[5, 13], &mut rng);
        let svd = svd_jacobi(&a).unwrap();
        assert!(relative_error(&a, &svd.reconstruct()) < 1e-5);
    }

    #[test]
    fn singular_values_sorted_and_nonnegative() {
        let mut rng = Rng64::new(3);
        let a = Tensor::randn(&[10, 10], &mut rng);
        let svd = svd_jacobi(&a).unwrap();
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(svd.s.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn factors_are_orthonormal() {
        let mut rng = Rng64::new(4);
        let a = Tensor::randn(&[15, 9], &mut rng);
        let svd = svd_jacobi(&a).unwrap();
        assert!(orthonormality_error(&svd.u) < 1e-4);
        assert!(orthonormality_error(&svd.vt.transpose()) < 1e-4);
    }

    #[test]
    fn recovers_known_spectrum() {
        let mut rng = Rng64::new(5);
        let spectrum = [10.0, 5.0, 2.0, 1.0];
        let a = matrix_with_spectrum(20, 16, &spectrum, &mut rng);
        let svd = svd_jacobi(&a).unwrap();
        for (i, &want) in spectrum.iter().enumerate() {
            assert!(
                (svd.s[i] - want).abs() < 1e-3,
                "σ{i}: got {}, want {want}",
                svd.s[i]
            );
        }
        // Remaining singular values are ~0.
        assert!(svd.s[4..].iter().all(|&s| s < 1e-3));
    }

    #[test]
    fn truncation_error_matches_tail_energy() {
        // Eckart–Young: ‖A − A_k‖_F² = Σ_{i>k} σ_i².
        let mut rng = Rng64::new(6);
        let spectrum = [8.0, 4.0, 2.0, 1.0, 0.5];
        let a = matrix_with_spectrum(24, 18, &spectrum, &mut rng);
        let k = 2;
        let svd = truncated_svd(&a, k).unwrap();
        let err = a.sub(&svd.reconstruct()).unwrap().frobenius_norm();
        let tail: f32 = spectrum[k..].iter().map(|s| s * s).sum::<f32>().sqrt();
        assert!((err - tail).abs() < 1e-2, "err {err} vs tail {tail}");
    }

    #[test]
    fn randomized_path_matches_jacobi_on_low_rank_input() {
        let mut rng = Rng64::new(7);
        // 150×120 forces the randomized path (JACOBI_DIRECT_LIMIT = 96).
        let spectrum: Vec<f32> = (0..10).map(|i| 2.0f32.powi(6 - i)).collect();
        let a = matrix_with_spectrum(150, 120, &spectrum, &mut rng);
        let svd = truncated_svd(&a, 6).unwrap();
        for i in 0..6 {
            assert!(
                (svd.s[i] - spectrum[i]).abs() / spectrum[i] < 0.01,
                "σ{i}: got {}, want {}",
                svd.s[i],
                spectrum[i]
            );
        }
    }

    #[test]
    fn truncated_rank_validation() {
        let a = Tensor::eye(4);
        assert!(matches!(
            truncated_svd(&a, 0),
            Err(TensorError::InvalidRank { .. })
        ));
        assert!(matches!(
            truncated_svd(&a, 5),
            Err(TensorError::InvalidRank { .. })
        ));
        assert!(truncated_svd(&a, 4).is_ok());
    }

    #[test]
    fn rank_one_truncation_of_identity() {
        let a = Tensor::eye(6);
        let svd = truncated_svd(&a, 1).unwrap();
        assert_eq!(svd.rank(), 1);
        // Identity has all σ = 1; rank-1 approx captures exactly 1/6 energy.
        let err = relative_error(&a, &svd.reconstruct());
        assert!((err - (5.0f32 / 6.0).sqrt()).abs() < 1e-3);
    }

    #[test]
    fn non_finite_input_yields_structured_error() {
        let mut rng = Rng64::new(21);
        let mut a = Tensor::randn(&[12, 9], &mut rng);
        a.set(&[3, 4], f32::NAN);
        match truncated_svd(&a, 2) {
            Err(TensorError::NonFinite { op }) => assert!(op.contains("input")),
            other => panic!("expected NonFinite error, got {other:?}"),
        }
        let mut b = Tensor::randn(&[12, 9], &mut rng);
        b.set(&[0, 0], f32::INFINITY);
        assert!(matches!(
            truncated_svd(&b, 2),
            Err(TensorError::NonFinite { .. })
        ));
    }

    #[test]
    fn ensure_finite_guard() {
        assert!(ensure_finite("test", &[1.0f32, -2.0, 0.0]).is_ok());
        assert_eq!(
            ensure_finite("test-op", &[1.0f32, f32::NEG_INFINITY]),
            Err(TensorError::NonFinite { op: "test-op" })
        );
    }

    #[test]
    fn zero_matrix_svd() {
        let a = Tensor::zeros(&[6, 4]);
        let svd = svd_jacobi(&a).unwrap();
        assert!(svd.s.iter().all(|&s| s == 0.0));
        assert!(svd.reconstruct().approx_eq(&a, 1e-7));
    }

    #[test]
    fn diagonal_matrix_spectrum() {
        let mut a = Tensor::zeros(&[4, 4]);
        for (i, &d) in [3.0f32, 7.0, 1.0, 5.0].iter().enumerate() {
            a.set(&[i, i], d);
        }
        let svd = svd_jacobi(&a).unwrap();
        assert!((svd.s[0] - 7.0).abs() < 1e-5);
        assert!((svd.s[1] - 5.0).abs() < 1e-5);
        assert!((svd.s[2] - 3.0).abs() < 1e-5);
        assert!((svd.s[3] - 1.0).abs() < 1e-5);
    }
}
