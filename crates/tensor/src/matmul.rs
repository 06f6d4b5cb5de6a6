//! Matrix multiplication: one packed GEMM engine for every variant.
//!
//! All entry points — [`matmul`], [`matmul_transa`], [`matmul_transb`],
//! [`batched_matmul`], and (via the shared dot kernel) [`matvec`] — route
//! through a single BLIS-style blocked engine: operand panels are packed
//! into contiguous micro-kernel-aligned buffers ([`crate::pack`]) and
//! executed by an explicit SIMD micro-kernel with runtime dispatch and a
//! portable scalar fallback ([`crate::kernel`]). Transposed variants differ
//! only in how their panels are packed, so blocking, threading, and SIMD
//! come for free instead of through divergent hand-written loops.
//!
//! One exception skips the packing: a product (or a threaded row band of
//! one) that fits a single block — `m ≤ MC`, `k ≤ KC`, `n ≤ NC`, and
//! `m·n ≤ 32·NC` (see `in_place`) — with `f32` panels and neither
//! operand transposed. Packing such a product would copy each element
//! once and read it once, so [`kernel::gemm_unpacked`] reads A and B where
//! they lie instead, in the same tiles and the same per-element
//! accumulation order; the bits are unchanged. Every decode projection,
//! dense and factored, takes this route. The route depends on the shape
//! alone, so it is the same on both backends. The transposed entry
//! points, 16-bit panels, [`FactoredPlan`] and multi-block products still
//! pack.
//!
//! Large problems are threaded with `std::thread::scope` over row bands of
//! C. Results are deterministic: each C element's accumulation order over k
//! is fixed by the KC blocking and is independent of the band split, so any
//! thread count (and any [`set_thread_limit`]) produces bit-identical
//! output for a given backend.

use crate::dtype::KernelDtype;
use crate::kernel::{self, Backend, MR, NR};
use crate::pack::{pack_a, pack_b, pack_b_u16, packed_a_len, packed_b_len, MatRef};
use crate::Tensor;
use lrd_trace::counters::{self, record_gemm, record_gemm_typed, Counter, GemmVariant};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Problems smaller than this many MACs run single-threaded.
const PARALLEL_THRESHOLD: usize = 1 << 20;

/// Cache blocking: rows of A packed per block (multiple of `MR`).
pub const MC: usize = 120;

/// Cache blocking: shared-dimension depth per packed panel.
pub const KC: usize = 256;

/// Cache blocking: columns of B packed per block (multiple of `NR`).
pub const NC: usize = 1024;

/// Process-wide GEMM thread budget; 0 means "no limit" (use available
/// parallelism). Sweep-level executors set this so outer (per-study-point)
/// and inner (per-GEMM) parallelism compose without oversubscribing the
/// machine.
static THREAD_LIMIT: AtomicUsize = AtomicUsize::new(0);

/// Caps the number of threads any single GEMM may spawn; `0` removes the
/// cap. Returns the previous limit so callers can restore it.
pub fn set_thread_limit(limit: usize) -> usize {
    THREAD_LIMIT.swap(limit, Ordering::Relaxed)
}

/// The current GEMM thread cap (`0` = unlimited).
pub fn thread_limit() -> usize {
    THREAD_LIMIT.load(Ordering::Relaxed)
}

/// Number of worker threads to use for a problem of `macs` multiply-adds
/// split across `rows` independent bands. The ceiling is the host's
/// available parallelism (not a hardcoded constant, so many-core machines
/// aren't silently throttled), further capped by [`set_thread_limit`].
fn thread_count(macs: usize, rows: usize) -> usize {
    thread_count_with(PARALLEL_THRESHOLD, macs, rows)
}

/// [`thread_count`] with an explicit serial threshold. The batched path
/// threads earlier (slices are fully independent, so workers never share
/// packed panels and the spawn cost amortizes over whole slices).
fn thread_count_with(threshold: usize, macs: usize, rows: usize) -> usize {
    if macs < threshold {
        return 1;
    }
    // lrd-lint: allow(determinism, "thread count only bands independent output rows; each f32 cell is produced by exactly one worker, so results are bit-identical at any width")
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1);
    let limit = thread_limit();
    let cap = if limit == 0 { hw } else { limit };
    hw.min(cap).min(rows).max(1)
}

/// Reusable packing buffers for the blocked engine. One scratch lives per
/// worker thread; callers that issue many small GEMMs back to back (the
/// batched path) reuse it across calls so panel buffers are allocated once
/// per batch instead of once per slice.
#[derive(Default)]
struct GemmScratch {
    apack: Vec<f32>,
    bpack_f32: Vec<f32>,
    bpack_u16: Vec<u16>,
}

/// A packed B panel in either storage precision, ready for the micro loop.
enum BPanel<'a> {
    F32(&'a [f32]),
    U16(&'a [u16], KernelDtype),
}

/// Runs one `MR×NR` micro-tile (edge tiles via a local buffer) against a
/// packed B panel of either storage dtype.
#[inline]
#[allow(clippy::too_many_arguments)]
fn run_tile(
    backend: Backend,
    kc: usize,
    apanel: &[f32],
    bpanel: &BPanel,
    mr: usize,
    nr: usize,
    c_band: &mut [f32],
    off: usize,
    ldc: usize,
) {
    if mr == MR && nr == NR {
        match bpanel {
            BPanel::F32(buf) => {
                kernel::microkernel(backend, kc, apanel, buf, &mut c_band[off..], ldc);
            }
            BPanel::U16(buf, dt) => {
                kernel::microkernel_u16(backend, *dt, kc, apanel, buf, &mut c_band[off..], ldc);
            }
        }
    } else {
        // Edge tile: compute into a local buffer, add only the valid
        // region back.
        let mut tile = [0.0f32; MR * NR];
        match bpanel {
            BPanel::F32(buf) => kernel::microkernel(backend, kc, apanel, buf, &mut tile, NR),
            BPanel::U16(buf, dt) => {
                kernel::microkernel_u16(backend, *dt, kc, apanel, buf, &mut tile, NR);
            }
        }
        for r in 0..mr {
            let dst = off + r * ldc;
            for (cv, &tv) in c_band[dst..dst + nr].iter_mut().zip(&tile[r * NR..]) {
                *cv += tv;
            }
        }
    }
}

/// Whether an `m × k · k × n` product skips packing. It must be a single
/// block of the packed loop nest (`m ≤ MC`, `k ≤ KC`, `n ≤ NC`), where
/// packing would copy each operand element once and read it back once.
/// It must also have `m·n ≤ 32·NC`: reading B in place re-reads each
/// `NR`-column strip at row stride `n` once per `MR`-row tile, and at
/// `n = NC` (4 KB rows) that lost to packing from `m ≈ 90` rows up, while
/// every measured shape inside the bound won or tied (DESIGN.md §7).
fn in_place(m: usize, k: usize, n: usize) -> bool {
    m <= MC && k <= KC && n <= NC && m * n <= 32 * NC
}

/// Serial packed GEMM over one row band: `C[i0..i0+m][..] += A · B`, where
/// `c_band` holds rows `i0..i0+m` of C (row stride `b.cols()`). B panels
/// are stored at `dtype` (A panels always stay `f32`). Degenerate
/// dimensions (`m`, `n`, or `k` of zero) are no-ops.
///
/// A band that is [`in_place`] with `f32` panels and untransposed
/// operands skips packing: [`kernel::gemm_unpacked`] reads A and B in
/// place with the same per-element accumulation order, so the bits match.
#[allow(clippy::too_many_arguments)]
fn gemm_block(
    backend: Backend,
    dtype: KernelDtype,
    a: &MatRef,
    b: &MatRef,
    i0: usize,
    m: usize,
    c_band: &mut [f32],
    scratch: &mut GemmScratch,
) {
    let (n, k) = (b.cols(), a.cols());
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if let (KernelDtype::F32, Some(a_data), Some(b_data)) = (dtype, a.row_major(), b.row_major()) {
        if in_place(m, k, n) {
            kernel::gemm_unpacked(backend, m, k, n, &a_data[i0 * k..], b_data, c_band);
            return;
        }
    }
    let kc_bound = KC.min(k);
    let b_len = packed_b_len(kc_bound, NC.min(n));
    let a_len = packed_a_len(MC.min(m), kc_bound);
    if scratch.apack.len() < a_len {
        scratch.apack.resize(a_len, 0.0);
    }
    match dtype {
        KernelDtype::F32 => {
            if scratch.bpack_f32.len() < b_len {
                scratch.bpack_f32.resize(b_len, 0.0);
            }
        }
        _ => {
            if scratch.bpack_u16.len() < b_len {
                scratch.bpack_u16.resize(b_len, 0);
            }
        }
    }
    let mut bytes_packed = 0u64;
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            match dtype {
                KernelDtype::F32 => pack_b(&mut scratch.bpack_f32, b, pc, kc, jc, nc),
                _ => pack_b_u16(&mut scratch.bpack_u16, dtype, b, pc, kc, jc, nc),
            }
            bytes_packed += (packed_b_len(kc, nc) * dtype.bytes()) as u64;
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                pack_a(&mut scratch.apack, a, i0 + ic, mc, pc, kc);
                bytes_packed += (packed_a_len(mc, kc) * 4) as u64;
                for jr in (0..nc).step_by(NR) {
                    let nr = NR.min(nc - jr);
                    let poff = (jr / NR) * NR * kc;
                    let bpanel = match dtype {
                        KernelDtype::F32 => BPanel::F32(&scratch.bpack_f32[poff..][..NR * kc]),
                        _ => BPanel::U16(&scratch.bpack_u16[poff..][..NR * kc], dtype),
                    };
                    for ir in (0..mc).step_by(MR) {
                        let mr = MR.min(mc - ir);
                        let apanel = &scratch.apack[(ir / MR) * MR * kc..][..MR * kc];
                        let off = (ic + ir) * n + jc + jr;
                        run_tile(backend, kc, apanel, &bpanel, mr, nr, c_band, off, n);
                    }
                }
            }
        }
    }
    counters::add(Counter::GemmBytesPacked, bytes_packed);
}

/// Threaded driver: splits C's rows into bands and runs [`gemm_block`] per
/// band, or inline when one thread suffices.
fn gemm_driver(backend: Backend, dtype: KernelDtype, a: &MatRef, b: &MatRef, c: &mut Tensor) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    let threads = thread_count(m * n * k, m);
    let c_data = c.data_mut();
    if threads <= 1 {
        gemm_block(
            backend,
            dtype,
            a,
            b,
            0,
            m,
            c_data,
            &mut GemmScratch::default(),
        );
        return;
    }
    let band = m.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut rest = c_data;
        let mut row0 = 0usize;
        while row0 < m {
            let rows = band.min(m - row0);
            let (mine, tail) = rest.split_at_mut(rows * n);
            rest = tail;
            let (a, b) = (*a, *b);
            scope.spawn(move || {
                gemm_block(
                    backend,
                    dtype,
                    &a,
                    &b,
                    row0,
                    rows,
                    mine,
                    &mut GemmScratch::default(),
                );
            });
            row0 += rows;
        }
    });
}

/// Computes `a · b` for matrices `a (m×k)` and `b (k×n)`.
///
/// # Panics
///
/// Panics if the operands are not order-2 or the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use lrd_tensor::{matmul::matmul, Tensor};
///
/// let a = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
/// let b = Tensor::eye(2);
/// assert_eq!(matmul(&a, &b), a);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_on(Backend::active(), a, b)
}

/// [`matmul`] on an explicit kernel backend (scalar-vs-SIMD testing hook).
pub fn matmul_on(backend: Backend, a: &Tensor, b: &Tensor) -> Tensor {
    matmul_with(backend, KernelDtype::F32, a, b)
}

/// [`matmul`] with explicit kernel backend and packed-panel storage dtype:
/// `b`'s panels are stored at `dtype` and widened to `f32` in registers,
/// trading one half-ULP-of-`dtype` rounding per weight element for half
/// the B-panel memory traffic. `a` (the activation side) always stays
/// `f32`. See `KernelDtype::gemm_rel_tol` for the accuracy contract.
pub fn matmul_with(backend: Backend, dtype: KernelDtype, a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (k2, n) = (b.rows(), b.cols());
    assert_eq!(
        k, k2,
        "matmul inner dimension mismatch: {}×{} · {}×{}",
        m, k, k2, n
    );
    record_gemm_typed(
        GemmVariant::Matmul,
        backend.name(),
        dtype.name(),
        2 * (m * n * k) as u64,
    );
    let mut c = Tensor::zeros(&[m, n]);
    gemm_driver(
        backend,
        dtype,
        &MatRef::new(a.data(), m, k),
        &MatRef::new(b.data(), k, n),
        &mut c,
    );
    c
}

/// Computes `a · bᵀ` for `a (m×k)`, `b (n×k)` without materializing `bᵀ`
/// (the transpose happens at pack time).
///
/// # Panics
///
/// Panics if the operands are not order-2 or the shared dimensions disagree.
pub fn matmul_transb(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_transb_on(Backend::active(), a, b)
}

/// [`matmul_transb`] on an explicit kernel backend.
pub fn matmul_transb_on(backend: Backend, a: &Tensor, b: &Tensor) -> Tensor {
    matmul_transb_with(backend, KernelDtype::F32, a, b)
}

/// [`matmul_transb`] with explicit backend and B-panel storage dtype.
pub fn matmul_transb_with(backend: Backend, dtype: KernelDtype, a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (n, k2) = (b.rows(), b.cols());
    assert_eq!(k, k2, "matmul_transb shared dimension mismatch");
    record_gemm_typed(
        GemmVariant::MatmulTransB,
        backend.name(),
        dtype.name(),
        2 * (m * n * k) as u64,
    );
    let mut c = Tensor::zeros(&[m, n]);
    gemm_driver(
        backend,
        dtype,
        &MatRef::new(a.data(), m, k),
        &MatRef::transposed(b.data(), k, n),
        &mut c,
    );
    c
}

/// Computes `aᵀ · b` for `a (k×m)`, `b (k×n)` without materializing `aᵀ`
/// (the transpose happens at pack time, so this path gets the same
/// blocking, SIMD, and row-band threading as plain [`matmul`]).
///
/// # Panics
///
/// Panics if the operands are not order-2 or the shared dimensions disagree.
pub fn matmul_transa(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_transa_on(Backend::active(), a, b)
}

/// [`matmul_transa`] on an explicit kernel backend.
pub fn matmul_transa_on(backend: Backend, a: &Tensor, b: &Tensor) -> Tensor {
    matmul_transa_with(backend, KernelDtype::F32, a, b)
}

/// [`matmul_transa`] with explicit backend and B-panel storage dtype.
pub fn matmul_transa_with(backend: Backend, dtype: KernelDtype, a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.rows(), a.cols());
    let (k2, n) = (b.rows(), b.cols());
    assert_eq!(k, k2, "matmul_transa shared dimension mismatch");
    record_gemm_typed(
        GemmVariant::MatmulTransA,
        backend.name(),
        dtype.name(),
        2 * (m * n * k) as u64,
    );
    let mut c = Tensor::zeros(&[m, n]);
    gemm_driver(
        backend,
        dtype,
        &MatRef::transposed(a.data(), m, k),
        &MatRef::new(b.data(), k, n),
        &mut c,
    );
    c
}

/// Matrix–vector product `a (m×k) · x (k)` via the engine's SIMD dot
/// kernel.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn matvec(a: &Tensor, x: &[f32]) -> Vec<f32> {
    let backend = Backend::active();
    let (m, k) = (a.rows(), a.cols());
    assert_eq!(k, x.len(), "matvec dimension mismatch");
    record_gemm(GemmVariant::Matvec, backend.name(), 2 * (m * k) as u64);
    let mut y = vec![0.0f32; m];
    let threads = thread_count(m * k, m);
    let run_rows = |i0: usize, y_band: &mut [f32]| {
        for (r, yv) in y_band.iter_mut().enumerate() {
            let i = i0 + r;
            *yv = kernel::dot(backend, &a.data()[i * k..(i + 1) * k], x);
        }
    };
    if threads <= 1 {
        run_rows(0, &mut y);
        return y;
    }
    let band = m.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut rest = y.as_mut_slice();
        let mut i0 = 0usize;
        while i0 < m {
            let rows = band.min(m - i0);
            let (mine, tail) = rest.split_at_mut(rows);
            rest = tail;
            let run = &run_rows;
            scope.spawn(move || run(i0, mine));
            i0 += rows;
        }
    });
    y
}

/// Matrix–vector product against the *transposed* matrix without
/// materializing it: `aᵀ (n×k) · x (k)` for row-major `a (k×n)` — the
/// decode-path shape, where weights stored `(in × out)` multiply a single
/// activation row. Instead of gathering strided columns per output (what
/// `matvec(&a.transpose(), x)` costs, plus the transpose copy), this
/// streams `a` row-major once, accumulating `y += x[kk] · a[kk][..]` with
/// the SIMD axpy kernel.
///
/// Deterministic at any thread count: each `y[j]` accumulates in fixed
/// `kk` order regardless of how columns are banded.
///
/// # Panics
///
/// Panics if `a` is not order-2 or `x`'s length differs from `a.rows()`.
pub fn matvec_transb(a: &Tensor, x: &[f32]) -> Vec<f32> {
    let backend = Backend::active();
    let (k, n) = (a.rows(), a.cols());
    assert_eq!(k, x.len(), "matvec_transb dimension mismatch");
    record_gemm(
        GemmVariant::MatvecTransB,
        backend.name(),
        2 * (n * k) as u64,
    );
    let mut y = vec![0.0f32; n];
    let a_data = a.data();
    let threads = thread_count(n * k, n);
    let run_cols = |j0: usize, y_band: &mut [f32]| {
        let cols = y_band.len();
        for (kk, &xv) in x.iter().enumerate() {
            kernel::axpy(
                backend,
                xv,
                &a_data[kk * n + j0..kk * n + j0 + cols],
                y_band,
            );
        }
    };
    if threads <= 1 {
        run_cols(0, &mut y);
        return y;
    }
    let band = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut rest = y.as_mut_slice();
        let mut j0 = 0usize;
        while j0 < n {
            let cols = band.min(n - j0);
            let (mine, tail) = rest.split_at_mut(cols);
            rest = tail;
            let run = &run_cols;
            scope.spawn(move || run(j0, mine));
            j0 += cols;
        }
    });
    y
}

/// Batched GEMM for order-3 tensors: `(B, m, k) · (B, k, n) → (B, m, n)`,
/// each slice through the packed engine, threaded across batch entries.
///
/// # Panics
///
/// Panics if operands are not order-3 or dimensions disagree.
pub fn batched_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let backend = Backend::active();
    assert_eq!(a.shape().order(), 3, "batched_matmul expects order-3 lhs");
    assert_eq!(b.shape().order(), 3, "batched_matmul expects order-3 rhs");
    let (ba, m, k) = (a.dims()[0], a.dims()[1], a.dims()[2]);
    let (bb, k2, n) = (b.dims()[0], b.dims()[1], b.dims()[2]);
    assert_eq!(ba, bb, "batched_matmul batch mismatch");
    assert_eq!(k, k2, "batched_matmul inner dimension mismatch");
    record_gemm(
        GemmVariant::Batched,
        backend.name(),
        2 * (ba * m * n * k) as u64,
    );
    let mut c = Tensor::zeros(&[ba, m, n]);
    let threads = thread_count_with(PARALLEL_THRESHOLD / 4, ba * m * n * k, ba);
    let a_data = a.data();
    let b_data = b.data();
    let c_data = c.data_mut();
    // One scratch per worker, reused across every slice it owns: panel
    // buffers are allocated once per batch run, not once per slice, which
    // is where the old per-slice `vec![…]` allocations burned the
    // small-slice shapes (tens of µs of allocator traffic per call).
    let run_slices = |b0: usize, count: usize, c_chunk: &mut [f32]| {
        let mut scratch = GemmScratch::default();
        for (si, c_sl) in c_chunk.chunks_mut(m * n).enumerate() {
            let bi = b0 + si;
            debug_assert!(si < count);
            let a_sl = &a_data[bi * m * k..(bi + 1) * m * k];
            let b_sl = &b_data[bi * k * n..(bi + 1) * k * n];
            gemm_block(
                backend,
                KernelDtype::F32,
                &MatRef::new(a_sl, m, k),
                &MatRef::new(b_sl, k, n),
                0,
                m,
                c_sl,
                &mut scratch,
            );
        }
    };
    if threads <= 1 {
        run_slices(0, ba, c_data);
        return c;
    }
    let band = ba.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut rest = c_data;
        let mut b0 = 0usize;
        while b0 < ba {
            let count = band.min(ba - b0);
            let (mine, tail) = rest.split_at_mut(count * m * n);
            rest = tail;
            let run = &run_slices;
            scope.spawn(move || run(b0, count, mine));
            b0 += count;
        }
    });
    c
}

/// A weight-side GEMM operand packed once into every `(jc, pc)` panel the
/// blocked loop nest will touch, stored in loop order. The factored path
/// packs its three tiny factor matrices once and reuses the panels for
/// every row chunk of every worker, instead of re-packing per chunk the
/// way the general driver must for arbitrary operands.
struct PrepackedB {
    k: usize,
    n: usize,
    dtype: KernelDtype,
    data_f32: Vec<f32>,
    data_u16: Vec<u16>,
    blocks: Vec<PackedBlock>,
}

/// One packed `(jc, pc)` block of a [`PrepackedB`].
struct PackedBlock {
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
    off: usize,
}

/// Packs every `(jc, pc)` block of `b` at `dtype` storage precision, in
/// the exact order [`gemm_block`] would visit them (jc outer, pc inner),
/// so per-element accumulation order — and hence f32 bit-identity with the
/// unfused path — is preserved.
fn prepack_b(b: &MatRef, dtype: KernelDtype) -> PrepackedB {
    let (k, n) = (b.rows(), b.cols());
    let mut packed = PrepackedB {
        k,
        n,
        dtype,
        data_f32: Vec::new(),
        data_u16: Vec::new(),
        blocks: Vec::new(),
    };
    let mut bytes_packed = 0u64;
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let len = packed_b_len(kc, nc);
            let off = match dtype {
                KernelDtype::F32 => {
                    let off = packed.data_f32.len();
                    packed.data_f32.resize(off + len, 0.0);
                    pack_b(&mut packed.data_f32[off..], b, pc, kc, jc, nc);
                    off
                }
                _ => {
                    let off = packed.data_u16.len();
                    packed.data_u16.resize(off + len, 0);
                    pack_b_u16(&mut packed.data_u16[off..], dtype, b, pc, kc, jc, nc);
                    off
                }
            };
            bytes_packed += (len * dtype.bytes()) as u64;
            packed.blocks.push(PackedBlock {
                jc,
                nc,
                pc,
                kc,
                off,
            });
        }
    }
    counters::add(Counter::GemmBytesPacked, bytes_packed);
    packed
}

/// [`gemm_block`] against a [`PrepackedB`]: identical loop nest and
/// accumulation order, but B panels come from the prepacked blocks instead
/// of being packed in place. Returns the bytes written into A panels so
/// callers can batch the counter update.
fn gemm_prepacked(
    backend: Backend,
    a: &MatRef,
    i0: usize,
    m: usize,
    bp: &PrepackedB,
    c_band: &mut [f32],
    apack: &mut Vec<f32>,
) -> u64 {
    let (n, k) = (bp.n, bp.k);
    if m == 0 || n == 0 || k == 0 {
        return 0;
    }
    let a_len = packed_a_len(MC.min(m), KC.min(k));
    if apack.len() < a_len {
        apack.resize(a_len, 0.0);
    }
    let mut bytes_packed = 0u64;
    for blk in &bp.blocks {
        let (jc, nc, pc, kc) = (blk.jc, blk.nc, blk.pc, blk.kc);
        for ic in (0..m).step_by(MC) {
            let mc = MC.min(m - ic);
            pack_a(apack, a, i0 + ic, mc, pc, kc);
            bytes_packed += (packed_a_len(mc, kc) * 4) as u64;
            for jr in (0..nc).step_by(NR) {
                let nr = NR.min(nc - jr);
                let poff = blk.off + (jr / NR) * NR * kc;
                let bpanel = match bp.dtype {
                    KernelDtype::F32 => BPanel::F32(&bp.data_f32[poff..][..NR * kc]),
                    _ => BPanel::U16(&bp.data_u16[poff..][..NR * kc], bp.dtype),
                };
                for ir in (0..mc).step_by(MR) {
                    let mr = MR.min(mc - ir);
                    let apanel = &apack[(ir / MR) * MR * kc..][..MR * kc];
                    let off = (ic + ir) * n + jc + jr;
                    run_tile(backend, kc, apanel, &bpanel, mr, nr, c_band, off, n);
                }
            }
        }
    }
    bytes_packed
}

/// The three factors of `((x·U1)·Γ)·U2` as the band loop reads them.
#[derive(Clone, Copy)]
enum Factors<'a> {
    /// Panels packed once, in [`gemm_block`]'s block order.
    Packed(&'a [PrepackedB; 3]),
    /// Row-major `f32` factors read in place. Only used when every stage is
    /// [`in_place`], so [`gemm_block`] takes its unpacked route.
    InPlace([MatRef<'a>; 3]),
}

impl Factors<'_> {
    /// Output widths `[r1, r2, n]` of the three stages.
    fn widths(&self) -> [usize; 3] {
        match self {
            Factors::Packed(p) => [p[0].n, p[1].n, p[2].n],
            Factors::InPlace(f) => [f[0].cols(), f[1].cols(), f[2].cols()],
        }
    }

    /// Stage `s` over one row chunk: `c += a[i0..i0+m] · factor s`.
    /// Returns the bytes written into A panels.
    #[allow(clippy::too_many_arguments)]
    fn stage(
        &self,
        s: usize,
        backend: Backend,
        a: &MatRef,
        i0: usize,
        m: usize,
        c: &mut [f32],
        apack: &mut Vec<f32>,
    ) -> u64 {
        match self {
            Factors::Packed(p) => gemm_prepacked(backend, a, i0, m, &p[s], c, apack),
            Factors::InPlace(f) => {
                let mut no_scratch = GemmScratch::default();
                gemm_block(
                    backend,
                    KernelDtype::F32,
                    a,
                    &f[s],
                    i0,
                    m,
                    c,
                    &mut no_scratch,
                );
                0
            }
        }
    }
}

/// Packs `U1`, `Γ`, `U2` at `dtype` storage precision.
fn prepack_factors(dtype: KernelDtype, u1: &Tensor, core: &Tensor, u2: &Tensor) -> [PrepackedB; 3] {
    [u1, core, u2].map(|f| prepack_b(&MatRef::new(f.data(), f.rows(), f.cols()), dtype))
}

/// Runs `f` on the factors of an `m`-row product: in place when every
/// stage is [`in_place`] at `f32`, otherwise packed at `dtype` for this
/// call.
fn with_factors(
    dtype: KernelDtype,
    m: usize,
    [u1, core, u2]: [&Tensor; 3],
    f: impl FnOnce(Factors<'_>),
) {
    let unpacked = dtype == KernelDtype::F32
        && [u1, core, u2]
            .iter()
            .all(|w| in_place(m, w.rows(), w.cols()));
    if unpacked {
        f(Factors::InPlace(
            [u1, core, u2].map(|w| MatRef::new(w.data(), w.rows(), w.cols())),
        ));
    } else {
        f(Factors::Packed(&prepack_factors(dtype, u1, core, u2)));
    }
}

/// One worker's share of the fused factored product: processes `rows` rows
/// of `x` starting at `row0` in `MC`-row chunks, streaming each chunk
/// through the three stages (`h1 = x·U1`, `h2 = h1·Γ`, `y += h2·U2`).
/// Without caches, `h1`/`h2` live in two chunk-sized scratch buffers
/// (≲ `MC·r` floats each) that stay cache-resident instead of
/// materializing `m×r` heap tensors; with caches, stages write straight
/// into the caller's full `h1`/`h2` rows.
fn factored_band(
    backend: Backend,
    x: &MatRef,
    row0: usize,
    rows: usize,
    factors: Factors,
    y_band: &mut [f32],
    mut caches: Option<(&mut [f32], &mut [f32])>,
) {
    let [r1, r2, n] = factors.widths();
    // Packing and intermediate buffers persist across calls on each worker
    // thread: a decode loop replaying one plan per token would otherwise
    // pay a ~`MC·KC` allocation + zero-fill on every call.
    thread_local! {
        static SCRATCH: std::cell::RefCell<(Vec<f32>, Vec<f32>, Vec<f32>)> =
            const { std::cell::RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
    }
    SCRATCH.with(|cell| {
        let mut guard = cell.borrow_mut();
        let (apack, h1s, h2s) = &mut *guard;
        let mut bytes_packed = 0u64;
        for c0 in (0..rows).step_by(MC) {
            let cm = MC.min(rows - c0);
            let (h1, h2): (&mut [f32], &mut [f32]) = match caches.as_mut() {
                Some((h1f, h2f)) => (
                    &mut h1f[c0 * r1..(c0 + cm) * r1],
                    &mut h2f[c0 * r2..(c0 + cm) * r2],
                ),
                None => {
                    h1s.clear();
                    h1s.resize(cm * r1, 0.0);
                    h2s.clear();
                    h2s.resize(cm * r2, 0.0);
                    (h1s.as_mut_slice(), h2s.as_mut_slice())
                }
            };
            bytes_packed += factors.stage(0, backend, x, row0 + c0, cm, h1, apack);
            let h1 = MatRef::new(&*h1, cm, r1);
            bytes_packed += factors.stage(1, backend, &h1, 0, cm, h2, apack);
            let h2 = MatRef::new(&*h2, cm, r2);
            let y_chunk = &mut y_band[c0 * n..(c0 + cm) * n];
            bytes_packed += factors.stage(2, backend, &h2, 0, cm, y_chunk, apack);
        }
        counters::add(Counter::GemmBytesPacked, bytes_packed);
    });
}

/// Threaded driver of the fused factored product: records the call, then
/// runs [`factored_band`] over row bands of `x` (inline when one thread
/// suffices). With `caches`, each band also gets its rows of the caller's
/// full `h1`/`h2`.
fn factored_driver(
    backend: Backend,
    dtype: KernelDtype,
    x: &MatRef,
    factors: Factors,
    y: &mut [f32],
    mut caches: Option<(&mut [f32], &mut [f32])>,
) {
    let (m, k) = (x.rows(), x.cols());
    let [r1, r2, n] = factors.widths();
    let macs = m * (k * r1 + r1 * r2 + r2 * n);
    record_gemm_typed(
        GemmVariant::FactoredFused,
        backend.name(),
        dtype.name(),
        2 * macs as u64,
    );
    let threads = thread_count(macs, m);
    if threads <= 1 {
        factored_band(backend, x, 0, m, factors, y, caches);
        return;
    }
    let band = m.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut y_rest = y;
        let mut row0 = 0usize;
        while row0 < m {
            let rows = band.min(m - row0);
            let (y_mine, y_tail) = y_rest.split_at_mut(rows * n);
            y_rest = y_tail;
            let band_caches = match caches.take() {
                Some((h1, h2)) => {
                    let (h1_mine, h1_tail) = h1.split_at_mut(rows * r1);
                    let (h2_mine, h2_tail) = h2.split_at_mut(rows * r2);
                    caches = Some((h1_tail, h2_tail));
                    Some((h1_mine, h2_mine))
                }
                None => None,
            };
            let x = *x;
            scope.spawn(move || {
                factored_band(backend, &x, row0, rows, factors, y_mine, band_caches);
            });
            row0 += rows;
        }
    });
}

/// Validates the factored-product shapes and returns
/// `(m, k, r1, r2, n)`.
fn factored_dims(x: &Tensor, u1: &Tensor, core: &Tensor, u2: &Tensor) -> [usize; 5] {
    let (m, k) = (x.rows(), x.cols());
    let (k2, r1) = (u1.rows(), u1.cols());
    let (r1b, r2) = (core.rows(), core.cols());
    let (r2b, n) = (u2.rows(), u2.cols());
    assert_eq!(k, k2, "factored_matmul: x·U1 inner dimension mismatch");
    assert_eq!(r1, r1b, "factored_matmul: U1·core inner dimension mismatch");
    assert_eq!(r2, r2b, "factored_matmul: core·U2 inner dimension mismatch");
    [m, k, r1, r2, n]
}

/// A factored linear product `((x·U1)·Γ)·U2` with all three factor
/// matrices prepacked once at a fixed panel storage dtype.
///
/// This is the "pack tiny core/U panels once" half of the fused pipeline:
/// building the plan pays the packing cost of `U1`/`Γ`/`U2` a single time,
/// and every subsequent [`FactoredPlan::matmul`] streams activations
/// through the prepacked panels. [`factored_matmul`] instead reads the
/// factors in place when every stage can skip packing, and otherwise packs
/// them for the one call.
///
/// A plan borrows nothing: the factor panels are copied into the packed
/// layout, so the source tensors may be dropped or mutated afterwards
/// (the plan keeps computing with the values it was built from).
pub struct FactoredPlan {
    k: usize,
    dtype: KernelDtype,
    panels: [PrepackedB; 3],
}

impl FactoredPlan {
    /// Prepacks `U1 (k×r1)`, `Γ (r1×r2)`, `U2 (r2×n)` at the active panel
    /// dtype ([`KernelDtype::active`]).
    ///
    /// # Panics
    ///
    /// Panics if the chain dimensions disagree.
    pub fn new(u1: &Tensor, core: &Tensor, u2: &Tensor) -> Self {
        Self::with_dtype(KernelDtype::active(), u1, core, u2)
    }

    /// [`FactoredPlan::new`] with an explicit panel storage dtype.
    ///
    /// # Panics
    ///
    /// Panics if the chain dimensions disagree.
    pub fn with_dtype(dtype: KernelDtype, u1: &Tensor, core: &Tensor, u2: &Tensor) -> Self {
        assert_eq!(
            u1.cols(),
            core.rows(),
            "FactoredPlan: U1·core inner dimension mismatch"
        );
        assert_eq!(
            core.cols(),
            u2.rows(),
            "FactoredPlan: core·U2 inner dimension mismatch"
        );
        FactoredPlan {
            k: u1.rows(),
            dtype,
            panels: prepack_factors(dtype, u1, core, u2),
        }
    }

    /// The panel storage dtype the factors were packed at.
    pub fn dtype(&self) -> KernelDtype {
        self.dtype
    }

    /// Input width (`U1` rows).
    pub fn fan_in(&self) -> usize {
        self.k
    }

    /// Output width (`U2` columns).
    pub fn fan_out(&self) -> usize {
        self.panels[2].n
    }

    /// `y = ((x·U1)·Γ)·U2` against the prepacked panels on the active
    /// backend. Bit-identical to [`factored_matmul`] at the same dtype.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != fan_in`.
    pub fn matmul(&self, x: &Tensor) -> Tensor {
        self.matmul_on(Backend::active(), x)
    }

    /// [`FactoredPlan::matmul`] with an explicit kernel backend.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != fan_in`.
    pub fn matmul_on(&self, backend: Backend, x: &Tensor) -> Tensor {
        let (m, k) = (x.rows(), x.cols());
        assert_eq!(k, self.k, "FactoredPlan: x·U1 inner dimension mismatch");
        let mut y = Tensor::zeros(&[m, self.fan_out()]);
        factored_driver(
            backend,
            self.dtype,
            &MatRef::new(x.data(), m, k),
            Factors::Packed(&self.panels),
            y.data_mut(),
            None,
        );
        y
    }
}

/// Fused factored-linear product `y = ((x·U1)·Γ)·U2` on the active backend
/// and active panel dtype ([`KernelDtype::active`]).
///
/// Every worker streams its row chunks through all three GEMM stages with
/// the rank-`r` intermediates held in cache-blocked scratch — no heap
/// `Tensor` intermediates. When every stage is small enough to skip
/// packing (see the module docs) and panels are `f32` — every decode
/// projection — the stages read the factors in place and nothing is
/// packed. Otherwise one pass packs the three factors at the active
/// storage dtype and every chunk reuses those panels; callers with static
/// factors and many such products should build a [`FactoredPlan`] once
/// instead.
///
/// With `f32` panels the result is bit-identical to the unfused
/// composition `matmul(&matmul(&matmul(x, u1), core), u2)` at any thread
/// count: panel blocks are visited in the same order, so each element's
/// accumulation order is unchanged. With `bf16`/`f16` panels every factor
/// element is rounded once to the storage dtype; the deviation is bounded
/// by `KernelDtype::gemm_rel_tol` per stage.
///
/// # Panics
///
/// Panics if any operand is not order-2 or the chain dimensions disagree.
pub fn factored_matmul(x: &Tensor, u1: &Tensor, core: &Tensor, u2: &Tensor) -> Tensor {
    factored_matmul_with(Backend::active(), KernelDtype::active(), x, u1, core, u2)
}

/// [`factored_matmul`] with explicit kernel backend and panel storage
/// dtype (testing and benchmarking hook).
pub fn factored_matmul_with(
    backend: Backend,
    dtype: KernelDtype,
    x: &Tensor,
    u1: &Tensor,
    core: &Tensor,
    u2: &Tensor,
) -> Tensor {
    let [m, k, _, _, n] = factored_dims(x, u1, core, u2);
    let mut y = Tensor::zeros(&[m, n]);
    with_factors(dtype, m, [u1, core, u2], |factors| {
        let x = MatRef::new(x.data(), m, k);
        factored_driver(backend, dtype, &x, factors, y.data_mut(), None);
    });
    y
}

/// [`factored_matmul`] that also returns the stage intermediates
/// `(y, h1, h2)` — the training forward pass needs `h1 = x·U1` and
/// `h2 = h1·Γ` for the backward pass, so the stages write rows straight
/// into full tensors instead of transient scratch. Stage values (and `y`)
/// are bit-identical to [`factored_matmul`].
pub fn factored_matmul_caches(
    x: &Tensor,
    u1: &Tensor,
    core: &Tensor,
    u2: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let backend = Backend::active();
    let dtype = KernelDtype::active();
    let [m, k, r1, r2, n] = factored_dims(x, u1, core, u2);
    let mut y = Tensor::zeros(&[m, n]);
    let mut h1 = Tensor::zeros(&[m, r1]);
    let mut h2 = Tensor::zeros(&[m, r2]);
    with_factors(dtype, m, [u1, core, u2], |factors| {
        let x = MatRef::new(x.data(), m, k);
        let caches = Some((h1.data_mut(), h2.data_mut()));
        factored_driver(backend, dtype, &x, factors, y.data_mut(), caches);
    });
    (y, h1, h2)
}

/// Mode-`n` tensor–matrix product: contracts mode `mode` of `t` with the
/// columns of `m (rows × t.dims[mode])`, producing a tensor whose `mode`
/// dimension becomes `m.rows()`.
///
/// This is the `×_n` operator of Tucker decomposition (§2.1 of the paper).
///
/// # Panics
///
/// Panics if `m` is not order-2 or its column count differs from
/// `t.dims()[mode]`.
pub fn mode_n_product(t: &Tensor, m: &Tensor, mode: usize) -> Tensor {
    let unfolded = t.unfold(mode);
    assert_eq!(
        m.cols(),
        unfolded.rows(),
        "mode_n_product: matrix cols {} != tensor mode-{mode} dim {}",
        m.cols(),
        unfolded.rows()
    );
    let product = matmul(m, &unfolded);
    let mut new_dims = t.dims().to_vec();
    new_dims[mode] = m.rows();
    Tensor::fold(&product, mode, &new_dims)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.get(&[i, kk]) * b.get(&[kk, j]);
                }
                c.set(&[i, j], acc);
            }
        }
        c
    }

    #[test]
    fn matches_naive_small() {
        let mut rng = Rng64::new(1);
        let a = Tensor::randn(&[7, 5], &mut rng);
        let b = Tensor::randn(&[5, 9], &mut rng);
        assert!(matmul(&a, &b).approx_eq(&naive_matmul(&a, &b), 1e-4));
    }

    #[test]
    fn matches_naive_threaded_path() {
        let mut rng = Rng64::new(2);
        // Big enough to cross PARALLEL_THRESHOLD.
        let a = Tensor::randn(&[130, 120], &mut rng);
        let b = Tensor::randn(&[120, 90], &mut rng);
        let got = matmul(&a, &b);
        let want = naive_matmul(&a, &b);
        let diff = got.sub(&want).unwrap().max_abs();
        assert!(diff < 1e-3, "max diff {diff}");
    }

    #[test]
    fn matches_naive_across_blocking_boundaries() {
        // Shapes straddling MC/KC/NC and micro-tile edges.
        let mut rng = Rng64::new(20);
        for (m, k, n) in [
            (1usize, 1usize, 1usize),
            (MR, 3, NR),
            (MR + 1, 2, NR + 1),
            (MC - 1, KC + 5, 33),
            (MC + 7, 40, NR * 2 + 3),
        ] {
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            let got = matmul(&a, &b);
            let want = naive_matmul(&a, &b);
            let diff = got.sub(&want).unwrap().max_abs();
            assert!(diff < 2e-3, "({m},{k},{n}) max diff {diff}");
        }
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng64::new(3);
        let a = Tensor::randn(&[6, 6], &mut rng);
        assert!(matmul(&a, &Tensor::eye(6)).approx_eq(&a, 1e-6));
        assert!(matmul(&Tensor::eye(6), &a).approx_eq(&a, 1e-6));
    }

    #[test]
    fn transb_matches_explicit_transpose() {
        let mut rng = Rng64::new(4);
        let a = Tensor::randn(&[8, 5], &mut rng);
        let b = Tensor::randn(&[7, 5], &mut rng);
        assert!(matmul_transb(&a, &b).approx_eq(&matmul(&a, &b.transpose()), 1e-4));
    }

    #[test]
    fn transa_matches_explicit_transpose() {
        let mut rng = Rng64::new(5);
        let a = Tensor::randn(&[5, 8], &mut rng);
        let b = Tensor::randn(&[5, 7], &mut rng);
        assert!(matmul_transa(&a, &b).approx_eq(&matmul(&a.transpose(), &b), 1e-4));
    }

    #[test]
    fn transa_threaded_path_matches() {
        // Cross PARALLEL_THRESHOLD so the (previously single-threaded)
        // transa variant exercises the band split.
        let mut rng = Rng64::new(21);
        let a = Tensor::randn(&[90, 140], &mut rng);
        let b = Tensor::randn(&[90, 110], &mut rng);
        let got = matmul_transa(&a, &b);
        let want = matmul(&a.transpose(), &b);
        assert!(got.approx_eq(&want, 1e-3));
    }

    #[test]
    fn scalar_and_simd_backends_agree() {
        let Some(simd) = Backend::detect_simd() else {
            return;
        };
        let mut rng = Rng64::new(22);
        let a = Tensor::randn(&[37, 29], &mut rng);
        let b = Tensor::randn(&[29, 41], &mut rng);
        let s = matmul_on(Backend::Scalar, &a, &b);
        let v = matmul_on(simd, &a, &b);
        let rel = s.sub(&v).unwrap().max_abs() / (1.0 + s.max_abs());
        assert!(rel <= 1e-4, "scalar vs simd rel diff {rel}");
    }

    #[test]
    fn results_identical_across_thread_limits() {
        // Determinism: band splits must not change accumulation order.
        let mut rng = Rng64::new(23);
        let a = Tensor::randn(&[128, 100], &mut rng);
        let b = Tensor::randn(&[100, 96], &mut rng);
        let prev = set_thread_limit(1);
        let one = matmul(&a, &b);
        set_thread_limit(4);
        let four = matmul(&a, &b);
        set_thread_limit(prev);
        assert_eq!(one, four, "thread count changed the bits");
    }

    #[test]
    fn engine_handles_degenerate_dims() {
        // Tensor can't represent zero-sized dims, so exercise the engine
        // directly: empty operands must be a clean no-op.
        let data: Vec<f32> = vec![1.0; 16];
        let mut c = vec![0.0f32; 0];
        gemm_block(
            Backend::Scalar,
            KernelDtype::F32,
            &MatRef::new(&data, 0, 4),
            &MatRef::new(&data, 4, 4),
            0,
            0,
            &mut c,
            &mut GemmScratch::default(),
        );
        let mut c2 = vec![0.0f32; 8];
        gemm_block(
            Backend::Scalar,
            KernelDtype::F32,
            &MatRef::new(&data, 2, 0),
            &MatRef::new(&data, 0, 4),
            0,
            2,
            &mut c2,
            &mut GemmScratch::default(),
        );
        assert!(c2.iter().all(|&v| v == 0.0), "k=0 must leave C zero");
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut rng = Rng64::new(6);
        let a = Tensor::randn(&[4, 6], &mut rng);
        let x = Tensor::randn(&[6, 1], &mut rng);
        let via_mm = matmul(&a, &x);
        let via_mv = matvec(&a, x.data());
        for i in 0..4 {
            assert!((via_mm.get(&[i, 0]) - via_mv[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn batched_matches_per_slice() {
        let mut rng = Rng64::new(7);
        let a = Tensor::randn(&[3, 4, 5], &mut rng);
        let b = Tensor::randn(&[3, 5, 6], &mut rng);
        let c = batched_matmul(&a, &b);
        for bi in 0..3 {
            let asl = Tensor::from_vec(&[4, 5], a.data()[bi * 20..(bi + 1) * 20].to_vec());
            let bsl = Tensor::from_vec(&[5, 6], b.data()[bi * 30..(bi + 1) * 30].to_vec());
            let csl = Tensor::from_vec(&[4, 6], c.data()[bi * 24..(bi + 1) * 24].to_vec());
            assert!(csl.approx_eq(&matmul(&asl, &bsl), 1e-4));
        }
    }

    #[test]
    fn batched_threaded_path_matches() {
        let mut rng = Rng64::new(24);
        let a = Tensor::randn(&[48, 20, 40], &mut rng);
        let b = Tensor::randn(&[48, 40, 30], &mut rng);
        let c = batched_matmul(&a, &b);
        for bi in [0usize, 17, 47] {
            let asl = Tensor::from_vec(&[20, 40], a.data()[bi * 800..(bi + 1) * 800].to_vec());
            let bsl = Tensor::from_vec(&[40, 30], b.data()[bi * 1200..(bi + 1) * 1200].to_vec());
            let csl = Tensor::from_vec(&[20, 30], c.data()[bi * 600..(bi + 1) * 600].to_vec());
            assert!(csl.approx_eq(&matmul(&asl, &bsl), 1e-4));
        }
    }

    #[test]
    fn matvec_threaded_path_matches_serial() {
        // Big enough to cross PARALLEL_THRESHOLD (m·k ≥ 2^20).
        let mut rng = Rng64::new(30);
        let a = Tensor::randn(&[1200, 1024], &mut rng);
        let x: Vec<f32> = (0..1024).map(|i| (i as f32 * 0.01).sin()).collect();
        let prev = set_thread_limit(1);
        let one = matvec(&a, &x);
        set_thread_limit(4);
        let four = matvec(&a, &x);
        set_thread_limit(prev);
        assert_eq!(one, four, "thread count changed matvec bits");
    }

    #[test]
    fn matvec_transb_matches_materialized_transpose() {
        let mut rng = Rng64::new(31);
        let a = Tensor::randn(&[17, 33], &mut rng);
        let x: Vec<f32> = (0..17).map(|i| (i as f32 * 0.2).cos()).collect();
        let got = matvec_transb(&a, &x);
        let want = matvec(&a.transpose(), &x);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-4 * (1.0 + w.abs()), "{g} vs {w}");
        }
    }

    #[test]
    fn matvec_transb_threaded_path_is_deterministic() {
        let mut rng = Rng64::new(32);
        let a = Tensor::randn(&[1024, 1200], &mut rng);
        let x: Vec<f32> = (0..1024).map(|i| (i as f32 * 0.013).sin()).collect();
        let prev = set_thread_limit(1);
        let one = matvec_transb(&a, &x);
        set_thread_limit(3);
        let three = matvec_transb(&a, &x);
        set_thread_limit(prev);
        assert_eq!(one, three, "thread count changed matvec_transb bits");
    }

    #[test]
    fn bf16_matmul_tracks_f32_within_contract() {
        let mut rng = Rng64::new(33);
        for dtype in [KernelDtype::Bf16, KernelDtype::F16] {
            let a = Tensor::randn(&[50, 70], &mut rng);
            let b = Tensor::randn(&[70, 45], &mut rng);
            let f = matmul_on(Backend::active(), &a, &b);
            let q = matmul_with(Backend::active(), dtype, &a, &b);
            let tol = dtype.gemm_rel_tol() * (70f32).sqrt();
            for (x, y) in f.data().iter().zip(q.data()) {
                assert!(
                    (x - y).abs() <= tol * (1.0 + x.abs()),
                    "{dtype:?}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn reduced_dtype_matmul_matches_prequantized_f32_matmul() {
        // Storing B panels at bf16 must equal quantizing B up front and
        // running the f32 engine: the kernels widen exactly.
        let mut rng = Rng64::new(34);
        for dtype in [KernelDtype::Bf16, KernelDtype::F16] {
            let a = Tensor::randn(&[23, 31], &mut rng);
            let b = Tensor::randn(&[31, 29], &mut rng);
            let bq_data: Vec<f32> = b
                .data()
                .iter()
                .map(|&v| crate::dtype::quantize(dtype, v))
                .collect();
            let bq = Tensor::from_vec(&[31, 29], bq_data);
            let got = matmul_with(Backend::active(), dtype, &a, &b);
            let want = matmul(&a, &bq);
            assert_eq!(got, want, "{dtype:?} widening must be exact");
        }
    }

    fn unfused(x: &Tensor, u1: &Tensor, core: &Tensor, u2: &Tensor) -> Tensor {
        matmul(&matmul(&matmul(x, u1), core), u2)
    }

    #[test]
    fn fused_factored_is_bit_identical_to_unfused_f32() {
        let mut rng = Rng64::new(35);
        for (m, k, r, n) in [
            (1usize, 8usize, 1usize, 5usize),
            (9, 64, 4, 48),
            (33, 100, 12, 77),
            (130, 300, 16, 260), // crosses KC/MC boundaries and threads
        ] {
            let x = Tensor::randn(&[m, k], &mut rng);
            let u1 = Tensor::randn(&[k, r], &mut rng);
            let core = Tensor::randn(&[r, r], &mut rng);
            let u2 = Tensor::randn(&[r, n], &mut rng);
            let fused =
                factored_matmul_with(Backend::active(), KernelDtype::F32, &x, &u1, &core, &u2);
            let want = unfused(&x, &u1, &core, &u2);
            assert_eq!(fused, want, "({m},{k},{r},{n}) fused != unfused bits");
        }
    }

    #[test]
    fn plan_reuse_is_bit_identical_to_per_call_fused() {
        let mut rng = Rng64::new(53);
        let u1 = Tensor::randn(&[48, 6], &mut rng);
        let mut core = Tensor::randn(&[6, 6], &mut rng);
        let u2 = Tensor::randn(&[6, 40], &mut rng);
        let plan = FactoredPlan::with_dtype(KernelDtype::F32, &u1, &core, &u2);
        assert_eq!((plan.fan_in(), plan.fan_out()), (48, 40));
        assert_eq!(plan.dtype(), KernelDtype::F32);
        // Same plan, several activations — each product bit-equals the
        // throwaway-plan entry point.
        for m in [1usize, 7, 130] {
            let x = Tensor::randn(&[m, 48], &mut rng);
            let want =
                factored_matmul_with(Backend::active(), KernelDtype::F32, &x, &u1, &core, &u2);
            assert_eq!(plan.matmul(&x), want, "m={m} plan != per-call fused");
        }
        // The plan owns its packed panels: mutating the source factor
        // afterwards must not change what the plan computes.
        let x = Tensor::randn(&[5, 48], &mut rng);
        let before = plan.matmul(&x);
        core.data_mut()[0] += 100.0;
        assert_eq!(plan.matmul(&x), before, "plan aliased a source tensor");
    }

    #[test]
    fn fused_factored_deterministic_across_thread_limits() {
        let mut rng = Rng64::new(36);
        let x = Tensor::randn(&[256, 200], &mut rng);
        let u1 = Tensor::randn(&[200, 24], &mut rng);
        let core = Tensor::randn(&[24, 24], &mut rng);
        let u2 = Tensor::randn(&[24, 180], &mut rng);
        let prev = set_thread_limit(1);
        let one = factored_matmul(&x, &u1, &core, &u2);
        set_thread_limit(5);
        let five = factored_matmul(&x, &u1, &core, &u2);
        set_thread_limit(prev);
        assert_eq!(one, five, "thread count changed fused bits");
    }

    #[test]
    fn fused_caches_match_unfused_stages() {
        let mut rng = Rng64::new(37);
        let x = Tensor::randn(&[40, 60], &mut rng);
        let u1 = Tensor::randn(&[60, 8], &mut rng);
        let core = Tensor::randn(&[8, 8], &mut rng);
        let u2 = Tensor::randn(&[8, 50], &mut rng);
        let (y, h1, h2) = factored_matmul_caches(&x, &u1, &core, &u2);
        let h1_want = matmul(&x, &u1);
        let h2_want = matmul(&h1_want, &core);
        let y_want = matmul(&h2_want, &u2);
        if KernelDtype::active() == KernelDtype::F32 {
            assert_eq!(h1, h1_want);
            assert_eq!(h2, h2_want);
            assert_eq!(y, y_want);
        } else {
            // The bound is relative: three chained GEMMs grow the output to
            // ~|x||u1||core||u2| magnitude, so scale by the reference's
            // largest entry instead of comparing absolutely.
            let tol = KernelDtype::active().gemm_rel_tol() * 8.0 * y_want.max_abs().max(1.0);
            assert!(y.sub(&y_want).map(|d| d.max_abs() < tol).unwrap_or(false));
        }
    }

    #[test]
    fn fused_reduced_precision_within_documented_tolerance() {
        let mut rng = Rng64::new(38);
        let (m, k, r, n) = (24usize, 96usize, 8usize, 64usize);
        let x = Tensor::randn(&[m, k], &mut rng);
        let u1 = Tensor::randn(&[k, r], &mut rng);
        let core = Tensor::randn(&[r, r], &mut rng);
        let u2 = Tensor::randn(&[r, n], &mut rng);
        let want = unfused(&x, &u1, &core, &u2);
        for dtype in [KernelDtype::Bf16, KernelDtype::F16] {
            let got = factored_matmul_with(Backend::active(), dtype, &x, &u1, &core, &u2);
            // Three stages, each bounded by the per-GEMM contract with a
            // sqrt(k)-style growth factor.
            let tol = 3.0 * dtype.gemm_rel_tol() * (k as f32).sqrt();
            for (g, w) in got.data().iter().zip(want.data()) {
                assert!(
                    (g - w).abs() <= tol * (1.0 + w.abs()),
                    "{dtype:?}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn gemm_bytes_packed_counter_advances() {
        // One row past MC, so the product is two blocks and must pack.
        // (One-block products pack nothing; `tests/packed_bytes.rs` checks
        // that in a process of its own, where no other GEMM moves the
        // global counter.)
        let mut rng = Rng64::new(39);
        let a = Tensor::randn(&[MC + 1, 40], &mut rng);
        let b = Tensor::randn(&[40, 24], &mut rng);
        let before = lrd_trace::counters::get(Counter::GemmBytesPacked);
        let _ = matmul(&a, &b);
        let after = lrd_trace::counters::get(Counter::GemmBytesPacked);
        if lrd_trace::enabled() {
            assert!(after > before, "matmul must account packed bytes");
        }
    }

    #[test]
    fn mode_n_product_matches_matrix_product() {
        // For an order-2 tensor, mode-0 product with M equals M · T.
        let mut rng = Rng64::new(8);
        let t = Tensor::randn(&[4, 6], &mut rng);
        let m = Tensor::randn(&[3, 4], &mut rng);
        assert!(mode_n_product(&t, &m, 0).approx_eq(&matmul(&m, &t), 1e-4));
        // Mode-1 product equals T · Mᵀ.
        let m2 = Tensor::randn(&[5, 6], &mut rng);
        assert!(mode_n_product(&t, &m2, 1).approx_eq(&matmul(&t, &m2.transpose()), 1e-4));
    }

    #[test]
    fn mode_n_product_changes_only_target_dim() {
        let mut rng = Rng64::new(9);
        let t = Tensor::randn(&[3, 4, 5], &mut rng);
        let m = Tensor::randn(&[2, 4], &mut rng);
        let out = mode_n_product(&t, &m, 1);
        assert_eq!(out.dims(), &[3, 2, 5]);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_inner_dims_panic() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = matmul(&a, &b);
    }
}
