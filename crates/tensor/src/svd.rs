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

use crate::kernel::Backend;
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
/// The sweeps visit column pairs by anti-diagonal wave (all `(p, q)` with
/// `p + q = s`, for `s = 1, 2, …`) instead of row by row. Every pair still
/// sees its two columns exactly as the cyclic order `(0,1), (0,2), …`
/// leaves them, because the pairs a column meets come in the same order
/// in both schedules, and one wave's pairs touch disjoint columns. So the
/// factors equal the cyclic sweep's bit for bit, while a wave's pairs run
/// side by side: on `avx2+fma` four pairs per vector, each lane with its
/// own in-order Gram chains (DESIGN.md, "Jacobi SVD engine").
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
    let mut state = Jacobi::new(a);
    state.sweeps(Backend::active())?;
    Ok(state.factors())
}

/// Pairs one wave group holds: two AVX2 vectors of four.
const GROUP: usize = 8;

/// Slack before and after each matrix in [`Jacobi::buf`], so a group's
/// `GROUP`-column loads stay inside the buffer at every edge.
const PAD: usize = GROUP;

/// The sweep state of [`svd_jacobi`]: the `m × n` problem with `m ≥ n` (a
/// wider input is worked on as its transpose) as f64 `work` and the
/// accumulated right rotations `v` (`n × n`), both row-major, in one
/// buffer laid out `[PAD | work | PAD | v | PAD]`.
struct Jacobi {
    m: usize,
    n: usize,
    /// The input was wider than tall, so `work` holds its transpose.
    wide: bool,
    buf: Vec<f64>,
}

/// What one group did: bit `l` of `rotated` / `settled` for lane `l`, and
/// the largest normalised `|apq|` among the rotated lanes (`0.0` if none).
struct GroupOutcome {
    rotated: u32,
    settled: u32,
    off: f64,
}

impl Jacobi {
    fn new(a: &Tensor) -> Jacobi {
        let wide = a.rows() < a.cols();
        let (m, n) = if wide {
            (a.cols(), a.rows())
        } else {
            (a.rows(), a.cols())
        };
        let mut buf = vec![0.0f64; 3 * PAD + m * n + n * n];
        let work = &mut buf[PAD..][..m * n];
        if wide {
            for (j, col) in a.data().chunks_exact(m).enumerate() {
                for (i, &x) in col.iter().enumerate() {
                    work[i * n + j] = x as f64;
                }
            }
        } else {
            for (w, &x) in work.iter_mut().zip(a.data()) {
                *w = x as f64;
            }
        }
        let v = &mut buf[2 * PAD + m * n..][..n * n];
        for i in 0..n {
            v[i * n + i] = 1.0;
        }
        Jacobi { m, n, wide, buf }
    }

    fn work(&self) -> &[f64] {
        &self.buf[PAD..][..self.m * self.n]
    }

    fn v(&self) -> &[f64] {
        &self.buf[2 * PAD + self.m * self.n..][..self.n * self.n]
    }

    /// Runs sweeps until no pair rotates by more than `1e-10` of its norm;
    /// returns how many ran.
    ///
    /// A pair found settled is not computed again while neither of its
    /// columns has been rotated since: recomputing would find the same
    /// three numbers and settle again, so the skip changes no bit.
    fn sweeps(&mut self, backend: Backend) -> Result<usize, TensorError> {
        let n = self.n;
        lrd_trace::counters::add(lrd_trace::Counter::SvdJacobiCalls, 1);
        // The wave (numbered from 1 across sweeps) that last rotated each
        // column, then the one that last found each pair `p·n + q`
        // settled; 0 for never.
        let mut memo = vec![0u32; n + n * n];
        let (rotated, settled) = memo.split_at_mut(n);
        let mut wave = 0u32;
        for sweep in 1..=MAX_SWEEPS {
            lrd_trace::counters::add(lrd_trace::Counter::SvdJacobiSweeps, 1);
            let mut off = 0.0f64;
            for s in 1..(2 * n).saturating_sub(2) {
                wave += 1;
                let last = (s - 1) / 2;
                let mut p0 = s.saturating_sub(n - 1);
                while p0 <= last {
                    let lanes = (last + 1 - p0).min(GROUP);
                    let need = (0..lanes)
                        .filter(|&l| {
                            let (p, q) = (p0 + l, s - p0 - l);
                            let found = settled[p * n + q];
                            found == 0 || rotated[p] >= found || rotated[q] >= found
                        })
                        .fold(0u32, |bits, l| bits | 1 << l);
                    if need != 0 {
                        let done = self.group(backend, p0, s - p0, lanes, need);
                        off = off.max(done.off);
                        for l in 0..lanes {
                            let (p, q) = (p0 + l, s - p0 - l);
                            if done.rotated >> l & 1 != 0 {
                                rotated[p] = wave;
                                rotated[q] = wave;
                            } else if done.settled >> l & 1 != 0 {
                                settled[p * n + q] = wave;
                            }
                        }
                    }
                    p0 += lanes;
                }
            }
            if off < 1e-10 {
                return Ok(sweep);
            }
        }
        Err(TensorError::NotConverged {
            algorithm: "jacobi-svd",
            iterations: MAX_SWEEPS,
        })
    }

    /// Visits the pairs `(p0 + l, q0 − l)` for lanes `l < lanes`, of which
    /// the lanes in `need` must be computed; the others may be.
    fn group(
        &mut self,
        backend: Backend,
        p0: usize,
        q0: usize,
        lanes: usize,
        need: u32,
    ) -> GroupOutcome {
        debug_assert!((1..=GROUP).contains(&lanes) && p0 + lanes - 1 < q0 + 1 - lanes);
        match backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Avx2Fma is only ever constructed after runtime
            // detection; the group's columns lie in `0..n` and its lanes
            // in `0..GROUP`.
            Backend::Avx2Fma if lanes <= 4 => unsafe { self.group_avx2::<1>(p0, q0, lanes) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            Backend::Avx2Fma => unsafe { self.group_avx2::<2>(p0, q0, lanes) },
            _ => self.group_scalar(p0, q0, lanes, need),
        }
    }

    /// Portable twin of [`Jacobi::group_avx2`]: the needed lanes one pair at
    /// a time.
    fn group_scalar(&mut self, p0: usize, q0: usize, lanes: usize, need: u32) -> GroupOutcome {
        let (m, n) = (self.m, self.n);
        let mut done = GroupOutcome {
            rotated: 0,
            settled: 0,
            off: 0.0,
        };
        for l in (0..lanes).filter(|&l| need >> l & 1 != 0) {
            let (p, q) = (p0 + l, q0 - l);
            let (mut app, mut aqq, mut apq) = (0.0f64, 0.0f64, 0.0f64);
            for row in self.work().chunks_exact(n) {
                let (x, y) = (row[p], row[q]);
                app += x * x;
                aqq += y * y;
                apq += x * y;
            }
            let Some((c, s, ratio)) = rotation(app, aqq, apq) else {
                done.settled |= 1 << l;
                continue;
            };
            done.rotated |= 1 << l;
            done.off = done.off.max(ratio);
            let (work, v) = self.buf[PAD..].split_at_mut(m * n + PAD);
            for row in work[..m * n]
                .chunks_exact_mut(n)
                .chain(v[..n * n].chunks_exact_mut(n))
            {
                let (wp, wq) = (row[p], row[q]);
                row[p] = c * wp - s * wq;
                row[q] = s * wp + c * wq;
            }
        }
        done
    }

    /// One wave group on AVX2, `V` vectors of four pairs: vector `j`, lane
    /// `l` holds pair `4j + l`. Its `p` columns are contiguous in a row and
    /// its `q` columns are too, descending, so they load as one vector
    /// reversed. Each lane keeps three in-order chains (`mul` then `add`,
    /// no FMA) and makes the scalar decision with four-lane `sqrt` and
    /// `div`. The rotation stores a vector whole when all four of its
    /// lanes rotate, and otherwise only its rotating lanes, since a settled
    /// lane must keep its bits and the unused lanes of a short group can
    /// alias used columns.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 and FMA, `lanes ≤ 4V`, and
    /// that the pairs' columns lie in `0..n`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn group_avx2<const V: usize>(
        &mut self,
        p0: usize,
        q0: usize,
        lanes: usize,
    ) -> GroupOutcome {
        use core::arch::x86_64::*;
        let (m, n) = (self.m, self.n);
        // SAFETY: the caller guarantees AVX2+FMA. Every load of row `i` of
        // a matrix reads columns `p0..p0 + 4V` and `q0 + 1 − 4V..=q0`,
        // which are at most `4V − 1 < PAD` elements past the row's end or
        // before its start, so inside `buf`; the stores write only rotating
        // lanes (a whole vector only when all four rotate), whose columns
        // lie in `0..n`.
        unsafe {
            let rev = |x: __m256d| _mm256_permute4x64_pd::<0x1b>(x);
            let work = self.buf.as_mut_ptr().add(PAD);
            let v = work.add(m * n + PAD);
            let (pw, qw) = (work.add(p0), work.add(q0).sub(3));
            let zero = _mm256_setzero_pd();
            let (mut app, mut aqq, mut apq) = ([zero; V], [zero; V], [zero; V]);
            for i in 0..m {
                let (pr, qr) = (pw.add(i * n), qw.add(i * n));
                for j in 0..V {
                    let x = _mm256_loadu_pd(pr.add(4 * j));
                    let y = rev(_mm256_loadu_pd(qr.sub(4 * j)));
                    app[j] = _mm256_add_pd(app[j], _mm256_mul_pd(x, x));
                    aqq[j] = _mm256_add_pd(aqq[j], _mm256_mul_pd(y, y));
                    apq[j] = _mm256_add_pd(apq[j], _mm256_mul_pd(x, y));
                }
            }
            let one = _mm256_set1_pd(1.0);
            let sign = _mm256_set1_pd(-0.0);
            let lane = _mm256_set_epi64x(3, 2, 1, 0);
            let (mut rot, mut cos, mut sin) = ([_mm256_setzero_si256(); V], [zero; V], [zero; V]);
            let (mut rotated, mut settled, mut off) = (0u32, 0u32, zero);
            for j in 0..V {
                let live = _mm256_castsi256_pd(_mm256_cmpgt_epi64(
                    _mm256_set1_epi64x((lanes - 4 * j) as i64),
                    lane,
                ));
                // `max_pd(x, MIN_POSITIVE)` takes MIN_POSITIVE for a NaN `x`,
                // as `f64::max` does.
                let norm = _mm256_max_pd(
                    _mm256_sqrt_pd(_mm256_mul_pd(app[j], aqq[j])),
                    _mm256_set1_pd(f64::MIN_POSITIVE),
                );
                let abs = _mm256_andnot_pd(sign, apq[j]);
                let small = _mm256_cmp_pd::<_CMP_LE_OQ>(
                    abs,
                    _mm256_mul_pd(_mm256_set1_pd(JACOBI_EPS), norm),
                );
                let turn = _mm256_andnot_pd(small, live);
                settled |= (_mm256_movemask_pd(_mm256_and_pd(small, live)) as u32) << (4 * j);
                rotated |= (_mm256_movemask_pd(turn) as u32) << (4 * j);
                // `max_pd(ratio, off)` keeps `off` for a NaN ratio, as
                // `f64::max` does.
                let ratio = _mm256_and_pd(_mm256_div_pd(abs, norm), turn);
                off = _mm256_max_pd(ratio, off);
                let tau = _mm256_div_pd(
                    _mm256_sub_pd(aqq[j], app[j]),
                    _mm256_mul_pd(_mm256_set1_pd(2.0), apq[j]),
                );
                let root = _mm256_sqrt_pd(_mm256_add_pd(one, _mm256_mul_pd(tau, tau)));
                // t = 1/(tau + root) when tau ≥ 0, else −1/(−tau + root).
                let ahead = _mm256_cmp_pd::<_CMP_GE_OQ>(tau, zero);
                let flip = _mm256_andnot_pd(ahead, sign);
                let t = _mm256_div_pd(
                    _mm256_xor_pd(one, flip),
                    _mm256_add_pd(_mm256_xor_pd(tau, flip), root),
                );
                cos[j] =
                    _mm256_div_pd(one, _mm256_sqrt_pd(_mm256_add_pd(one, _mm256_mul_pd(t, t))));
                sin[j] = _mm256_mul_pd(cos[j], t);
                rot[j] = _mm256_castpd_si256(turn);
            }
            let mut lanes_off = [0.0f64; 4];
            _mm256_storeu_pd(lanes_off.as_mut_ptr(), off);
            let off = lanes_off.iter().fold(0.0f64, |a, &b| a.max(b));
            if rotated != 0 {
                let rot_q = rot.map(|r| _mm256_permute4x64_epi64::<0x1b>(r));
                for (base, rows) in [(work, m), (v, n)] {
                    let (pb, qb) = (base.add(p0), base.add(q0).sub(3));
                    for i in 0..rows {
                        let (pr, qr) = (pb.add(i * n), qb.add(i * n));
                        for j in 0..V {
                            let x = _mm256_loadu_pd(pr.add(4 * j));
                            let y = rev(_mm256_loadu_pd(qr.sub(4 * j)));
                            let xn =
                                _mm256_sub_pd(_mm256_mul_pd(cos[j], x), _mm256_mul_pd(sin[j], y));
                            let yn =
                                _mm256_add_pd(_mm256_mul_pd(sin[j], x), _mm256_mul_pd(cos[j], y));
                            if rotated >> (4 * j) & 0xf == 0xf {
                                _mm256_storeu_pd(pr.add(4 * j), xn);
                                _mm256_storeu_pd(qr.sub(4 * j), rev(yn));
                            } else {
                                _mm256_maskstore_pd(pr.add(4 * j), rot[j], xn);
                                _mm256_maskstore_pd(qr.sub(4 * j), rot_q[j], rev(yn));
                            }
                        }
                    }
                }
            }
            GroupOutcome {
                rotated,
                settled,
                off,
            }
        }
    }

    /// `u`, `s` and `vt` from the converged state: singular values are the
    /// column norms of `work` (sorted descending), left vectors its
    /// normalised columns, right vectors the columns of `v`; a wide input
    /// swaps the two sides.
    fn factors(&self) -> Svd {
        let (m, n) = (self.m, self.n);
        let (work, v) = (self.work(), self.v());
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
        // The tall problem's `u` is `m × n` and its `vt` is `n × n`; a wide
        // input's are `vt` and `u` transposed.
        let (mut u, mut vt) = if self.wide {
            (Tensor::zeros(&[n, n]), Tensor::zeros(&[n, m]))
        } else {
            (Tensor::zeros(&[m, n]), Tensor::zeros(&[n, n]))
        };
        let mut s_out = Vec::with_capacity(n);
        for (out_j, &(sigma, j)) in triples.iter().enumerate() {
            s_out.push(sigma as f32);
            let left = (0..m).map(|i| (work[i * n + j] / sigma) as f32);
            let right = (0..n).map(|i| v[i * n + j] as f32);
            if self.wide {
                if sigma > 0.0 {
                    vt.row_mut(out_j)
                        .iter_mut()
                        .zip(left)
                        .for_each(|(o, x)| *o = x);
                }
                for (row, x) in u.data_mut().chunks_exact_mut(n).zip(right) {
                    row[out_j] = x;
                }
            } else {
                if sigma > 0.0 {
                    for (row, x) in u.data_mut().chunks_exact_mut(n).zip(left) {
                        row[out_j] = x;
                    }
                }
                vt.row_mut(out_j)
                    .iter_mut()
                    .zip(right)
                    .for_each(|(o, x)| *o = x);
            }
        }
        Svd { u, s: s_out, vt }
    }
}

/// The rotation zeroing the `(p, q)` entry of the implicit Gram matrix
/// `[[app, apq], [apq, aqq]]`: `(c, s, |apq|/√(app·aqq))`, or `None` when
/// the pair is already orthogonal to `JACOBI_EPS`.
fn rotation(app: f64, aqq: f64, apq: f64) -> Option<(f64, f64, f64)> {
    let norm = (app * aqq).sqrt().max(f64::MIN_POSITIVE);
    if apq.abs() <= JACOBI_EPS * norm {
        return None;
    }
    let tau = (aqq - app) / (2.0 * apq);
    let t = if tau >= 0.0 {
        1.0 / (tau + (1.0 + tau * tau).sqrt())
    } else {
        -1.0 / (-tau + (1.0 + tau * tau).sqrt())
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    Some((c, c * t, apq.abs() / norm))
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

    // The cyclic row-major engine that [`svd_jacobi`]'s wave schedule
    // replaced, kept verbatim as the bit-equality oracle. It is split only
    // where the sweeps end, so tests compare the f64 state before the f32
    // rounding of the factors can hide a difference.

    /// The reference sweeps for `m ≥ n`: `work` (`m × n`) and `v`
    /// (`n × n`), both row-major, and the number of sweeps run.
    fn reference_sweeps(a: &Tensor) -> Result<(Vec<f64>, Vec<f64>, usize), TensorError> {
        let (m, n) = (a.rows(), a.cols());
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

        for sweep in 1..=MAX_SWEEPS {
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
                return Ok((work, v, sweep));
            }
        }
        Err(TensorError::NotConverged {
            algorithm: "jacobi-svd",
            iterations: MAX_SWEEPS,
        })
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
        let (work, v, _) = reference_sweeps(a)?;

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

    fn f64_bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|y| y.to_bits()).collect()
    }

    fn f32_bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|y| y.to_bits()).collect()
    }

    /// Asserts the wave engine equals the reference engine bit for bit on
    /// every backend: the f64 sweep state (`work` and `v`) and the sweep
    /// count, then every `u`, `s` and `vt` element, or the same error.
    fn assert_matches_reference(a: &Tensor) {
        let dims = a.dims().to_vec();
        let tall = if a.rows() < a.cols() {
            a.transpose()
        } else {
            a.clone()
        };
        let (want, want_svd) = (reference_sweeps(&tall), svd_jacobi_reference(a));
        for backend in crate::kernel::tests::backends() {
            let what = format!("input {dims:?} on {}", backend.name());
            let mut state = Jacobi::new(a);
            match (state.sweeps(backend), &want) {
                (Ok(sweeps), Ok((work, v, want_sweeps))) => {
                    assert_eq!(f64_bits(state.work()), f64_bits(work), "work, {what}");
                    assert_eq!(f64_bits(state.v()), f64_bits(v), "v, {what}");
                    assert_eq!(sweeps, *want_sweeps, "sweeps, {what}");
                }
                (got, want) => {
                    assert_eq!(got.err(), want.as_ref().err().cloned(), "{what}");
                    continue;
                }
            }
            let (got, want) = (
                state.factors(),
                want_svd.as_ref().expect("reference factors"),
            );
            assert_eq!(got.u.dims(), want.u.dims(), "u shape, {what}");
            assert_eq!(got.vt.dims(), want.vt.dims(), "vt shape, {what}");
            assert_eq!(f32_bits(got.u.data()), f32_bits(want.u.data()), "u, {what}");
            assert_eq!(f32_bits(&got.s), f32_bits(&want.s), "s, {what}");
            assert_eq!(
                f32_bits(got.vt.data()),
                f32_bits(want.vt.data()),
                "vt, {what}"
            );
        }
    }

    #[test]
    fn wave_engine_matches_reference_at_every_small_width() {
        let mut rng = Rng64::new(33);
        for n in (1..=17).chain([40, 41]) {
            for m in [1, n, 112] {
                assert_matches_reference(&Tensor::randn(&[m, n], &mut rng).scale(0.05));
            }
        }
    }

    #[test]
    fn short_group_lanes_that_alias_used_columns_are_not_written() {
        // At n = 40, wave 9 is the five pairs (0,9) … (4,5): one group whose
        // unused p lanes 5, 6 and 7 are the q columns of lanes 4, 3 and 2.
        let (n, s, p0, lanes) = (40, 9, 0, 5);
        let mut rng = Rng64::new(34);
        let a = Tensor::randn(&[56, n], &mut rng);
        let want = {
            let mut state = Jacobi::new(&a);
            state.group(Backend::Scalar, p0, s - p0, lanes, (1 << lanes) - 1);
            state.buf
        };
        for backend in crate::kernel::tests::backends() {
            let mut state = Jacobi::new(&a);
            let done = state.group(backend, p0, s - p0, lanes, (1 << lanes) - 1);
            assert_eq!(done.rotated, (1 << lanes) - 1, "{}", backend.name());
            assert_eq!(f64_bits(&state.buf), f64_bits(&want), "{}", backend.name());
        }
    }

    #[test]
    fn wave_engine_matches_reference_on_tiny_llama_weights() {
        // 32 layers of Xavier-initialised weights as the tiny-Llama draws
        // them: q/k/v/o 40×40, gate/up 40×112 and down 112×40.
        let xavier = |fan_in: usize, fan_out: usize, rng: &mut Rng64| {
            let std = (2.0 / (fan_in + fan_out) as f32).sqrt();
            Tensor::randn_scaled(&[fan_in, fan_out], std, rng)
        };
        let mut rng = Rng64::new(7);
        for _layer in 0..32 {
            for (fan_in, fan_out) in
                [(40, 40); 4]
                    .into_iter()
                    .chain([(40, 112), (40, 112), (112, 40)])
            {
                assert_matches_reference(&xavier(fan_in, fan_out, &mut rng));
            }
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
