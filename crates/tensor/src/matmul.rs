//! Matrix multiplication: one packed GEMM engine behind one entry point.
//!
//! [`gemm`] takes the whole op descriptor — kernel [`Backend`], B-panel
//! [`KernelDtype`] and which operand is transposed ([`Trans`]) — and is
//! the only path into the engine for plain products. [`matmul`],
//! [`matmul_transa`] and [`matmul_transb`] are its `f32` shorthands on
//! the active backend. The fused factored product (`factored_matmul*`,
//! [`FactoredPlan`]) streams three products through the same engine.
//!
//! The engine is BLIS-style: operand panels are packed into contiguous
//! micro-kernel-aligned buffers ([`crate::pack`]) and executed by an
//! explicit SIMD micro-kernel with runtime dispatch and a portable scalar
//! fallback ([`crate::kernel`]). The transposes differ only in how their
//! panels are packed, so blocking, threading, and SIMD come for free
//! instead of through divergent hand-written loops. One macro-kernel loop
//! (`macro_kernel`) runs every packed `(jc, pc)` block of B, whether the
//! block was packed for this call or prepacked once by a plan.
//!
//! One exception skips the packing: an `f32` product with neither operand
//! transposed whose `MC`-row chunks each fit a single block — `k ≤ KC`,
//! `n ≤ NC`, and `min(m, MC)·n ≤ 32·NC` (see `in_place`) — at any height
//! `m`. Packing such a chunk would copy each element once and read it
//! once, so [`kernel::gemm_unpacked`] reads each chunk of A, and B, where
//! they lie instead, in the same per-element accumulation order; the bits
//! are unchanged. A narrow product (`n ≤` [`kernel::NARROW_N`], such as
//! the `x·U1` and `h1·Γ` stages of a rank-1 factored product) runs there
//! as row dots rather than mostly-masked tiles. Every decode projection
//! and every eval prefill projection of the served model, dense and
//! factored, takes this route. The route depends on the shape alone, so
//! it is the same on both backends. Transposed products, 16-bit panels,
//! `k > KC` and [`FactoredPlan`] still pack.
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
use lrd_trace::counters::{self, record_gemm, Counter, GemmVariant};
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

/// Number of worker threads to use for a problem of `macs` multiply-adds
/// split across `rows` independent bands. The ceiling is the host's
/// available parallelism (not a hardcoded constant, so many-core machines
/// aren't silently throttled), further capped by [`set_thread_limit`].
fn thread_count(macs: usize, rows: usize) -> usize {
    if macs < PARALLEL_THRESHOLD {
        return 1;
    }
    // lrd-lint: allow(determinism, "thread count only bands independent output rows; each f32 cell is produced by exactly one worker, so results are bit-identical at any width")
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1);
    let limit = THREAD_LIMIT.load(Ordering::Relaxed);
    let cap = if limit == 0 { hw } else { limit };
    hw.min(cap).min(rows).max(1)
}

/// Packed B storage at either panel precision.
enum PanelBuf {
    F32(Vec<f32>),
    U16(Vec<u16>, KernelDtype),
}

impl PanelBuf {
    fn new(dtype: KernelDtype) -> Self {
        match dtype {
            KernelDtype::F32 => PanelBuf::F32(Vec::new()),
            _ => PanelBuf::U16(Vec::new(), dtype),
        }
    }

    /// Packs `blk` of `b` at element offset `off`, growing the buffer if
    /// it is too short. Returns the bytes written.
    fn pack(&mut self, b: &MatRef, blk: &Block, off: usize) -> u64 {
        let len = packed_b_len(blk.kc, blk.nc);
        let Block { jc, nc, pc, kc } = *blk;
        match self {
            PanelBuf::F32(buf) => {
                if buf.len() < off + len {
                    buf.resize(off + len, 0.0);
                }
                pack_b(&mut buf[off..], b, pc, kc, jc, nc);
                (len * 4) as u64
            }
            PanelBuf::U16(buf, dtype) => {
                if buf.len() < off + len {
                    buf.resize(off + len, 0);
                }
                pack_b_u16(&mut buf[off..], *dtype, b, pc, kc, jc, nc);
                (len * 2) as u64
            }
        }
    }
}

/// One `(jc, pc)` block of B: columns `jc..jc+nc`, depth `pc..pc+kc`.
#[derive(Clone, Copy)]
struct Block {
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
}

/// Every block of a `k × n` B in loop-nest order: `jc` outer, `pc` inner.
fn blocks(k: usize, n: usize) -> impl Iterator<Item = Block> {
    (0..n).step_by(NC).flat_map(move |jc| {
        (0..k).step_by(KC).map(move |pc| Block {
            jc,
            nc: NC.min(n - jc),
            pc,
            kc: KC.min(k - pc),
        })
    })
}

/// Runs one `MR×NR` micro-tile (edge tiles via a local buffer) against
/// the B micro-panel at element offset `boff` of `b`, of either storage
/// dtype.
#[inline]
#[allow(clippy::too_many_arguments)]
fn run_tile(
    backend: Backend,
    kc: usize,
    apanel: &[f32],
    b: &PanelBuf,
    boff: usize,
    mr: usize,
    nr: usize,
    c_band: &mut [f32],
    off: usize,
    ldc: usize,
) {
    let tile_kernel = |c: &mut [f32], ldc: usize| match b {
        PanelBuf::F32(buf) => {
            kernel::microkernel(backend, kc, apanel, &buf[boff..][..NR * kc], c, ldc);
        }
        PanelBuf::U16(buf, dt) => {
            kernel::microkernel_u16(backend, *dt, kc, apanel, &buf[boff..][..NR * kc], c, ldc);
        }
    };
    if mr == MR && nr == NR {
        tile_kernel(&mut c_band[off..], ldc);
    } else {
        // Edge tile: compute into a local buffer, add only the valid
        // region back.
        let mut tile = [0.0f32; MR * NR];
        tile_kernel(&mut tile, NR);
        for r in 0..mr {
            let dst = off + r * ldc;
            for (cv, &tv) in c_band[dst..dst + nr].iter_mut().zip(&tile[r * NR..]) {
                *cv += tv;
            }
        }
    }
}

/// The macro-kernel: `C[i0..i0+m][jc..jc+nc] += A[i0..i0+m][pc..pc+kc] ·
/// B-block`, where `b` holds `blk` packed from element offset `boff` on
/// and `c_band` holds rows
/// `i0..` of C at row stride `ldc`. Each `MC`-row chunk of A is packed
/// into `apack`, then every `MR × NR` tile runs, `NR`-column strips outer.
/// Both the packed and the prepacked paths run their blocks through here,
/// so their per-element accumulation order is the same. Returns the bytes
/// written into A panels.
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    backend: Backend,
    a: &MatRef,
    i0: usize,
    m: usize,
    blk: &Block,
    b: &PanelBuf,
    boff: usize,
    c_band: &mut [f32],
    ldc: usize,
    apack: &mut [f32],
) -> u64 {
    let Block { jc, nc, pc, kc } = *blk;
    let mut bytes_packed = 0u64;
    for ic in (0..m).step_by(MC) {
        let mc = MC.min(m - ic);
        pack_a(apack, a, i0 + ic, mc, pc, kc);
        bytes_packed += (packed_a_len(mc, kc) * 4) as u64;
        for jr in (0..nc).step_by(NR) {
            let nr = NR.min(nc - jr);
            let bpanel = boff + (jr / NR) * NR * kc;
            for ir in (0..mc).step_by(MR) {
                let mr = MR.min(mc - ir);
                let apanel = &apack[(ir / MR) * MR * kc..][..MR * kc];
                let off = (ic + ir) * ldc + jc + jr;
                run_tile(backend, kc, apanel, b, bpanel, mr, nr, c_band, off, ldc);
            }
        }
    }
    bytes_packed
}

/// Whether an `m × k · k × n` product skips packing, decided on its
/// `MC`-row chunks, so at any height `m`. Each chunk must be a single
/// block of the packed loop nest (`k ≤ KC`, `n ≤ NC`), where packing
/// would copy each operand element once and read it back once. It must
/// also have `min(m, MC)·n ≤ 32·NC`: reading B in place re-reads each
/// `NR`-column strip at row stride `n` once per `MR`-row tile, and at
/// `n = NC` (4 KB rows) that lost to packing from `m ≈ 90` rows up, while
/// every measured shape inside the bound won or tied (DESIGN.md §7).
fn in_place(m: usize, k: usize, n: usize) -> bool {
    k <= KC && n <= NC && m.min(MC) * n <= 32 * NC
}

/// Serial packed GEMM over one row band: `C[i0..i0+m][..] += A · B`, where
/// `c_band` holds rows `i0..i0+m` of C (row stride `b.cols()`). B panels
/// are stored at `dtype` (A panels always stay `f32`). Degenerate
/// dimensions (`m`, `n`, or `k` of zero) are no-ops.
///
/// A band that is [`in_place`], with `f32` panels and untransposed
/// operands, skips packing: [`kernel::gemm_unpacked`] reads each `MC`-row
/// chunk of A, and B, in place with the same per-element accumulation
/// order, so the bits match.
fn gemm_block(
    backend: Backend,
    dtype: KernelDtype,
    a: &MatRef,
    b: &MatRef,
    i0: usize,
    m: usize,
    c_band: &mut [f32],
) {
    let (n, k) = (b.cols(), a.cols());
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if let (KernelDtype::F32, Some(a_data), Some(b_data)) = (dtype, a.row_major(), b.row_major()) {
        if in_place(m, k, n) {
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                let a_chunk = &a_data[(i0 + ic) * k..];
                kernel::gemm_unpacked(backend, mc, k, n, a_chunk, b_data, &mut c_band[ic * n..]);
            }
            return;
        }
    }
    let mut apack = vec![0.0f32; packed_a_len(MC.min(m), KC.min(k))];
    // The first block is the largest, so the buffer is sized once.
    let mut bpack = PanelBuf::new(dtype);
    let mut bytes_packed = 0u64;
    for blk in blocks(k, n) {
        bytes_packed += bpack.pack(b, &blk, 0);
        bytes_packed += macro_kernel(backend, a, i0, m, &blk, &bpack, 0, c_band, n, &mut apack);
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
        gemm_block(backend, dtype, a, b, 0, m, c_data);
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
            scope.spawn(move || gemm_block(backend, dtype, &a, &b, row0, rows, mine));
            row0 += rows;
        }
    });
}

/// Which operand of a [`gemm`] is read transposed. The transpose happens
/// at pack time, so no transposed copy is ever materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// `a · b` for `a (m×k)`, `b (k×n)`.
    No,
    /// `aᵀ · b` for `a (k×m)`, `b (k×n)`.
    A,
    /// `a · bᵀ` for `a (m×k)`, `b (n×k)`.
    B,
}

/// The GEMM entry point: `C (m×n)` as `a · b`, `aᵀ · b` or `a · bᵀ`
/// (picked by `trans`) on kernel `backend`, with B's packed panels stored
/// at `dtype`.
///
/// With `dtype` `bf16`/`f16`, B's panels are widened to `f32` in
/// registers, trading one half-ULP-of-`dtype` rounding per B element for
/// half the B-panel memory traffic; `a` (the activation side) always stays
/// `f32`. See `KernelDtype::gemm_rel_tol` for the accuracy contract.
///
/// # Panics
///
/// Panics if the operands are not order-2 or the shared dimensions disagree.
///
/// # Example
///
/// ```
/// use lrd_tensor::dtype::KernelDtype;
/// use lrd_tensor::kernel::Backend;
/// use lrd_tensor::matmul::{gemm, Trans};
/// use lrd_tensor::Tensor;
///
/// let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
/// let c = gemm(Backend::Scalar, KernelDtype::F32, Trans::A, &a, &a);
/// assert_eq!(c.dims(), &[3, 3]);
/// assert_eq!(c.get(&[0, 0]), 17.0);
/// ```
pub fn gemm(backend: Backend, dtype: KernelDtype, trans: Trans, a: &Tensor, b: &Tensor) -> Tensor {
    let (ar, ac, br, bc) = (a.rows(), a.cols(), b.rows(), b.cols());
    let (variant, a_ref, b_ref) = match trans {
        Trans::No => (
            GemmVariant::Matmul,
            MatRef::new(a.data(), ar, ac),
            MatRef::new(b.data(), br, bc),
        ),
        Trans::A => (
            GemmVariant::MatmulTransA,
            MatRef::transposed(a.data(), ac, ar),
            MatRef::new(b.data(), br, bc),
        ),
        Trans::B => (
            GemmVariant::MatmulTransB,
            MatRef::new(a.data(), ar, ac),
            MatRef::transposed(b.data(), bc, br),
        ),
    };
    let (m, k, n) = (a_ref.rows(), a_ref.cols(), b_ref.cols());
    assert_eq!(
        k,
        b_ref.rows(),
        "{} inner dimension mismatch: {ar}×{ac} · {br}×{bc}",
        variant.name()
    );
    record_gemm(
        variant,
        backend.name(),
        dtype.name(),
        2 * (m * n * k) as u64,
    );
    let mut c = Tensor::zeros(&[m, n]);
    gemm_driver(backend, dtype, &a_ref, &b_ref, &mut c);
    c
}

/// Computes `a · b` for matrices `a (m×k)` and `b (k×n)`: [`gemm`] on the
/// active backend with `f32` panels.
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
    gemm(Backend::active(), KernelDtype::F32, Trans::No, a, b)
}

/// Computes `a · bᵀ` for `a (m×k)`, `b (n×k)`: [`gemm`] with [`Trans::B`]
/// on the active backend with `f32` panels.
///
/// # Panics
///
/// Panics if the operands are not order-2 or the shared dimensions disagree.
pub fn matmul_transb(a: &Tensor, b: &Tensor) -> Tensor {
    gemm(Backend::active(), KernelDtype::F32, Trans::B, a, b)
}

/// Computes `aᵀ · b` for `a (k×m)`, `b (k×n)`: [`gemm`] with [`Trans::A`]
/// on the active backend with `f32` panels.
///
/// # Panics
///
/// Panics if the operands are not order-2 or the shared dimensions disagree.
pub fn matmul_transa(a: &Tensor, b: &Tensor) -> Tensor {
    gemm(Backend::active(), KernelDtype::F32, Trans::A, a, b)
}

/// A weight-side GEMM operand packed once into every `(jc, pc)` block the
/// blocked loop nest will touch, stored in loop order. The factored path
/// packs its three tiny factor matrices once and reuses the panels for
/// every row chunk of every worker, instead of re-packing per chunk the
/// way the general driver must for arbitrary operands.
struct PrepackedB {
    k: usize,
    n: usize,
    panels: PanelBuf,
    /// Each block with its element offset into `panels`.
    blocks: Vec<(Block, usize)>,
}

/// Packs every block of `b` at `dtype` storage precision, in the exact
/// order [`gemm_block`] visits them, so per-element accumulation order —
/// and hence f32 bit-identity with the unfused path — is preserved.
fn prepack_b(b: &MatRef, dtype: KernelDtype) -> PrepackedB {
    let (k, n) = (b.rows(), b.cols());
    let mut panels = PanelBuf::new(dtype);
    let mut off = 0usize;
    let mut bytes_packed = 0u64;
    let blocks = blocks(k, n)
        .map(|blk| {
            let at = off;
            bytes_packed += panels.pack(b, &blk, at);
            off += packed_b_len(blk.kc, blk.nc);
            (blk, at)
        })
        .collect();
    counters::add(Counter::GemmBytesPacked, bytes_packed);
    PrepackedB {
        k,
        n,
        panels,
        blocks,
    }
}

/// [`gemm_block`] against a [`PrepackedB`]: the same blocks through the
/// same [`macro_kernel`], with B panels read from the prepacked blocks.
/// Returns the bytes written into A panels so callers can batch the
/// counter update.
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
    bp.blocks
        .iter()
        .map(|(blk, off)| macro_kernel(backend, a, i0, m, blk, &bp.panels, *off, c_band, n, apack))
        .sum()
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
                gemm_block(backend, KernelDtype::F32, a, &f[s], i0, m, c);
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
/// `h1`/`h2` live in two chunk-sized scratch buffers (≲ `MC·r` floats
/// each) that stay cache-resident instead of materializing `m×r` heap
/// tensors.
fn factored_band(
    backend: Backend,
    x: &MatRef,
    row0: usize,
    rows: usize,
    factors: Factors,
    y_band: &mut [f32],
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
            h1s.clear();
            h1s.resize(cm * r1, 0.0);
            h2s.clear();
            h2s.resize(cm * r2, 0.0);
            bytes_packed += factors.stage(0, backend, x, row0 + c0, cm, h1s, apack);
            let h1 = MatRef::new(h1s, cm, r1);
            bytes_packed += factors.stage(1, backend, &h1, 0, cm, h2s, apack);
            let h2 = MatRef::new(h2s, cm, r2);
            let y_chunk = &mut y_band[c0 * n..(c0 + cm) * n];
            bytes_packed += factors.stage(2, backend, &h2, 0, cm, y_chunk, apack);
        }
        counters::add(Counter::GemmBytesPacked, bytes_packed);
    });
}

/// Threaded driver of the fused factored product: records the call, then
/// runs [`factored_band`] over row bands of `x` (inline when one thread
/// suffices).
fn factored_driver(
    backend: Backend,
    dtype: KernelDtype,
    x: &MatRef,
    factors: Factors,
    y: &mut [f32],
) {
    let (m, k) = (x.rows(), x.cols());
    let [r1, r2, n] = factors.widths();
    let macs = m * (k * r1 + r1 * r2 + r2 * n);
    record_gemm(
        GemmVariant::FactoredFused,
        backend.name(),
        dtype.name(),
        2 * macs as u64,
    );
    let threads = thread_count(macs, m);
    if threads <= 1 {
        factored_band(backend, x, 0, m, factors, y);
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
            let x = *x;
            scope.spawn(move || {
                factored_band(backend, &x, row0, rows, factors, y_mine);
            });
            row0 += rows;
        }
    });
}

/// Validates the factored-product shapes and returns `(m, k, n)`.
fn factored_dims(x: &Tensor, u1: &Tensor, core: &Tensor, u2: &Tensor) -> [usize; 3] {
    let (m, k) = (x.rows(), x.cols());
    let (k2, r1) = (u1.rows(), u1.cols());
    let (r1b, r2) = (core.rows(), core.cols());
    let (r2b, n) = (u2.rows(), u2.cols());
    assert_eq!(k, k2, "factored_matmul: x·U1 inner dimension mismatch");
    assert_eq!(r1, r1b, "factored_matmul: U1·core inner dimension mismatch");
    assert_eq!(r2, r2b, "factored_matmul: core·U2 inner dimension mismatch");
    [m, k, n]
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
            dtype,
            panels: prepack_factors(dtype, u1, core, u2),
        }
    }

    /// `y = ((x·U1)·Γ)·U2` against the prepacked panels on the active
    /// backend. Bit-identical to [`factored_matmul`] at the same dtype.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` differs from `U1`'s row count.
    pub fn matmul(&self, x: &Tensor) -> Tensor {
        self.matmul_on(Backend::active(), x)
    }

    /// [`FactoredPlan::matmul`] with an explicit kernel backend.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` differs from `U1`'s row count.
    pub fn matmul_on(&self, backend: Backend, x: &Tensor) -> Tensor {
        let (m, k) = (x.rows(), x.cols());
        assert_eq!(
            k, self.panels[0].k,
            "FactoredPlan: x·U1 inner dimension mismatch"
        );
        let mut y = Tensor::zeros(&[m, self.panels[2].n]);
        factored_driver(
            backend,
            self.dtype,
            &MatRef::new(x.data(), m, k),
            Factors::Packed(&self.panels),
            y.data_mut(),
        );
        y
    }
}

/// Fused factored-linear product `y = ((x·U1)·Γ)·U2` on the active backend
/// and active panel dtype ([`KernelDtype::active`]).
///
/// Every worker streams its row chunks through all three GEMM stages with
/// the rank-`r` intermediates held in cache-blocked scratch — no heap
/// `Tensor` intermediates. When every stage of an `MC`-row chunk can skip
/// packing (see the module docs) and panels are `f32` — every decode and
/// prefill projection of the served model — the stages read the factors
/// in place at any height and nothing is packed. Otherwise one pass packs
/// the three factors at the active storage dtype and every chunk reuses
/// those panels; callers with static factors and many such products
/// should build a [`FactoredPlan`] once instead.
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
    let [m, k, n] = factored_dims(x, u1, core, u2);
    let mut y = Tensor::zeros(&[m, n]);
    with_factors(dtype, m, [u1, core, u2], |factors| {
        let x = MatRef::new(x.data(), m, k);
        factored_driver(backend, dtype, &x, factors, y.data_mut());
    });
    y
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
    use crate::kernel::tests::{assert_same_bits, backends, chain_reference, values};
    use crate::kernel::NARROW_N;
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
        let s = gemm(Backend::Scalar, KernelDtype::F32, Trans::No, &a, &b);
        let v = gemm(simd, KernelDtype::F32, Trans::No, &a, &b);
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
        );
        assert!(c2.iter().all(|&v| v == 0.0), "k=0 must leave C zero");
    }

    #[test]
    fn bf16_matmul_tracks_f32_within_contract() {
        let mut rng = Rng64::new(33);
        for dtype in [KernelDtype::Bf16, KernelDtype::F16] {
            let a = Tensor::randn(&[50, 70], &mut rng);
            let b = Tensor::randn(&[70, 45], &mut rng);
            let f = matmul(&a, &b);
            let q = gemm(Backend::active(), dtype, Trans::No, &a, &b);
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
        // running the f32 engine: the kernels widen exactly, whichever
        // operand is read transposed.
        let mut rng = Rng64::new(34);
        let backend = Backend::active();
        for dtype in [KernelDtype::Bf16, KernelDtype::F16] {
            for (trans, a_dims, b_dims) in [
                (Trans::No, [23, 31], [31, 29]),
                (Trans::A, [31, 23], [31, 29]),
                (Trans::B, [23, 31], [29, 31]),
            ] {
                let a = Tensor::randn(&a_dims, &mut rng);
                let b = Tensor::randn(&b_dims, &mut rng);
                let bq = b.map(|v| crate::dtype::quantize(dtype, v));
                let got = gemm(backend, dtype, trans, &a, &b);
                let want = gemm(backend, KernelDtype::F32, trans, &a, &bq);
                assert_eq!(got, want, "{dtype:?} {trans:?} widening must be exact");
            }
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
            (7, 40, 3, NC + 5),  // two NC column blocks
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
        // Same plan, several activations — each product bit-equals the
        // throwaway-plan entry point. The second plan has two `KC`
        // depth blocks and two `NC` column blocks, and `m = 130` spans two
        // `MC` chunks, so the per-call path packs B blocks into scratch
        // while the plan reads them prepacked, both through one macro-kernel.
        for (k, n) in [(48usize, 40usize), (KC + 20, NC + 3)] {
            let u1 = Tensor::randn(&[k, 6], &mut rng);
            let core = Tensor::randn(&[6, 6], &mut rng);
            let u2 = Tensor::randn(&[6, n], &mut rng);
            let plan = FactoredPlan::with_dtype(KernelDtype::F32, &u1, &core, &u2);
            for m in [1usize, 7, 130] {
                let x = Tensor::randn(&[m, k], &mut rng);
                let want =
                    factored_matmul_with(Backend::active(), KernelDtype::F32, &x, &u1, &core, &u2);
                let got = plan.matmul(&x);
                assert_eq!(got, want, "({m},{k},{n}) plan != per-call fused");
                assert_eq!(got, unfused(&x, &u1, &core, &u2), "({m},{k},{n})");
            }
        }
        // The plan owns its packed panels: mutating the source factor
        // afterwards must not change what the plan computes.
        let u1 = Tensor::randn(&[48, 6], &mut rng);
        let mut core = Tensor::randn(&[6, 6], &mut rng);
        let u2 = Tensor::randn(&[6, 40], &mut rng);
        let plan = FactoredPlan::with_dtype(KernelDtype::F32, &u1, &core, &u2);
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
    fn fused_stages_match_per_stage_gemm_at_every_dtype() {
        // `FactoredLinear::backward` recomputes `h1 = x·U1` and `h2 = h1·Γ`
        // with `gemm` at the fused forward's panel dtype; its gradients are
        // exact only if those stages carry the fused pass's bits.
        let mut rng = Rng64::new(37);
        for (m, k, r, n) in [
            (1usize, 40usize, 1usize, 112usize),
            (40, 60, 8, 50),
            (MC + 10, 112, 5, 40),
        ] {
            let x = Tensor::randn(&[m, k], &mut rng);
            let u1 = Tensor::randn(&[k, r], &mut rng);
            let core = Tensor::randn(&[r, r], &mut rng);
            let u2 = Tensor::randn(&[r, n], &mut rng);
            for dtype in [KernelDtype::F32, KernelDtype::Bf16, KernelDtype::F16] {
                let backend = Backend::active();
                let stage = |a: &Tensor, b: &Tensor| gemm(backend, dtype, Trans::No, a, b);
                let want = stage(&stage(&stage(&x, &u1), &core), &u2);
                let got = factored_matmul_with(backend, dtype, &x, &u1, &core, &u2);
                assert_eq!(got, want, "({m},{k},{r},{n}) {dtype:?}");
            }
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

    /// Heights on each side of every chunk bound, up to a prefill batch.
    fn route_heights() -> impl Iterator<Item = usize> {
        (1..=17).chain([32, MC, MC + 1, 2 * MC + 1, 1024])
    }

    #[test]
    #[cfg_attr(miri, ignore = "millions of multiply-adds")]
    fn in_place_routes_match_chains_and_the_packed_engine() {
        // `matmul` reads every `MC`-row chunk in place when the chunk
        // qualifies (narrow products as row dots), and packs when `k > KC`,
        // where each chain splits at `KC`. The oracles: each element's
        // explicit chain, and the packed engine through `Trans::A`, which
        // never reads in place. Both thread limits give the same bits.
        let mut rng = Rng64::new(43);
        for m in route_heights() {
            for k in [1usize, 40, 112, KC, KC + 1] {
                for n in [1, NARROW_N, NARROW_N + 1, 40] {
                    let specials = (m + k + n) % 4 == 0;
                    let a = Tensor::from_vec(&[m, k], values(m * k, &mut rng, specials));
                    let b = Tensor::from_vec(&[k, n], values(k * n, &mut rng, specials));
                    let at = a.transpose();
                    for backend in backends() {
                        let want = chain_reference(backend, [m, k, n], a.data(), b.data(), KC);
                        let packed = gemm(backend, KernelDtype::F32, Trans::A, &at, &b);
                        let what = format!("{backend:?} ({m},{k},{n})");
                        assert_same_bits(packed.data(), &want, &format!("packed {what}"));
                        for limit in [1, 3] {
                            let prev = set_thread_limit(limit);
                            let got = gemm(backend, KernelDtype::F32, Trans::No, &a, &b);
                            set_thread_limit(prev);
                            assert_same_bits(got.data(), &want, &format!("{what} limit {limit}"));
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "millions of multiply-adds")]
    fn in_place_factored_stages_match_chains_and_the_plan() {
        // A factored product whose chunks all qualify reads its factors in
        // place at any height; a `FactoredPlan` always packs. Each stage
        // must be the chain of the previous stage's output.
        let mut rng = Rng64::new(44);
        for m in route_heights() {
            for (k, r, n) in [
                (40usize, 1usize, 40usize),
                (40, 1, 112),
                (112, 1, 40),
                (40, NARROW_N + 1, 40),
            ] {
                let specials = m % 5 == 0;
                let x = Tensor::from_vec(&[m, k], values(m * k, &mut rng, specials));
                let [u1, core, u2] = [[k, r], [r, r], [r, n]]
                    .map(|[p, q]| Tensor::from_vec(&[p, q], values(p * q, &mut rng, specials)));
                let plan = FactoredPlan::with_dtype(KernelDtype::F32, &u1, &core, &u2);
                for backend in backends() {
                    let h1 = chain_reference(backend, [m, k, r], x.data(), u1.data(), KC);
                    let h2 = chain_reference(backend, [m, r, r], &h1, core.data(), KC);
                    let want = chain_reference(backend, [m, r, n], &h2, u2.data(), KC);
                    let what = format!("{backend:?} ({m},{k},{r},{n})");
                    let planned = plan.matmul_on(backend, &x);
                    assert_same_bits(planned.data(), &want, &format!("plan {what}"));
                    for limit in [1, 3] {
                        let prev = set_thread_limit(limit);
                        let got =
                            factored_matmul_with(backend, KernelDtype::F32, &x, &u1, &core, &u2);
                        set_thread_limit(prev);
                        assert_same_bits(got.data(), &want, &format!("{what} limit {limit}"));
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_bytes_packed_counter_advances() {
        // One k-step past KC, so the product is two blocks and must pack.
        // (Products whose chunks are one block pack nothing;
        // `tests/packed_bytes.rs` checks that in a process of its own,
        // where no other GEMM moves the global counter.)
        let mut rng = Rng64::new(39);
        let a = Tensor::randn(&[8, KC + 1], &mut rng);
        let b = Tensor::randn(&[KC + 1, 24], &mut rng);
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
