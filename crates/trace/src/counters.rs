//! Monotonic telemetry counters.
//!
//! Two shapes of counter live here:
//!
//! * a fixed set of named scalar counters ([`Counter`]), one relaxed
//!   `AtomicU64` each — cheap enough for per-call accounting anywhere in
//!   the workspace;
//! * the GEMM matrix ([`record_gemm`]): calls and FLOPs keyed by
//!   (variant, kernel backend, panel dtype), static atomics so the matmul
//!   dispatch hot path never touches a lock.
//!
//! Counters are process-global and monotone: they only ever increase, so
//! readers take deltas (`get` before / after) rather than resetting.

#[cfg(feature = "collect")]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(feature = "collect")]
use std::sync::OnceLock;

/// The workspace's named scalar counters.
///
/// To add one: add a variant here, give it a stable snake_case name in
/// [`Counter::name`], extend [`ALL`], and bump nothing else — it appears in
/// the metrics document automatically (see `DESIGN.md` §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// One-sided Jacobi SVD invocations (the executing orientation only).
    SvdJacobiCalls,
    /// Total Jacobi sweeps (iterations) across all invocations.
    SvdJacobiSweeps,
    /// Randomized subspace-iteration SVD invocations.
    SvdRandomizedCalls,
    /// Decomposition-cache lookups served from a memoized factor.
    CacheHits,
    /// Decomposition-cache lookups that ran the SVD.
    CacheMisses,
    /// Benchmark samples scored by the eval harness.
    EvalSamplesScored,
    /// Cloze samples skipped because the prompt had no MASK token.
    EvalClozeMissingMask,
    /// Token positions the eval harness feeds through `logits` (multiple
    /// choice, exact match and cloze), padding included.
    EvalTokensForwarded,
    /// Sweep points evaluated by study executors (including failed ones).
    SweepPoints,
    /// Sweep points whose decomposition failed (recorded, not fatal).
    SweepPointsFailed,
    /// Transient-failure retries attempted by the sweep runtime.
    SweepRetries,
    /// Sweep points marked timed-out by the executor watchdog.
    SweepPointsTimedOut,
    /// Faults injected by the deterministic fault-injection layer.
    FaultsInjected,
    /// Well-formed fault-spec entries naming a kind this build does not
    /// know (warned about, then ignored).
    FaultSpecUnknownKinds,
    /// Sweep points restored from a journal instead of recomputed.
    JournalPointsResumed,
    /// Unparsable journal lines dropped while loading (torn final line
    /// after a crash, foreign schema, corruption).
    JournalLinesDropped,
    /// Records combined into a merged journal by `journal-merge`.
    JournalRecordsMerged,
    /// Sweep points skipped because another shard owns them.
    SweepPointsShardSkipped,
    /// Jobs submitted to `run_jobs_isolated`, inline or pooled.
    ExecutorJobs,
    /// Total µs jobs spent queued before a worker claimed them.
    ExecutorQueueWaitUs,
    /// Total µs workers spent running job bodies.
    ExecutorRunUs,
    /// Hardware-simulator inference simulations.
    HwsimSimulations,
    /// Warnings routed through `lrd_trace::warn` (the sanctioned stderr
    /// choke point).
    WarningsEmitted,
    /// Bytes written into packed GEMM panels (A and B, padding included) —
    /// the memory traffic the packed engine actually moves, which drops
    /// when reduced-precision panel storage is active.
    GemmBytesPacked,
    /// Sessions admitted into the serving queue or batch.
    ServeSessionsAdmitted,
    /// Session arrivals rejected because the admission queue was full.
    ServeSessionsRejected,
    /// Sessions that ran to completion (generated their full budget or
    /// hit the context bound).
    ServeSessionsCompleted,
    /// Tokens produced by the serving decode loop across all sessions.
    ServeTokensGenerated,
    /// Continuous-batching decode iterations (one batched model step each).
    ServeDecodeBatches,
    /// Serving sessions settled as Failed (admission validation, a
    /// non-finite logits row, or a quarantined slot panic).
    ServeSessionsFailed,
    /// Serving sessions settled as TimedOut by the virtual-time deadline.
    ServeSessionsTimedOut,
    /// Load-shedding events: sessions pushed out of the admission queue
    /// above the high-water mark (a session shed twice counts twice).
    ServeSessionsShed,
    /// Re-admission attempts granted to shed sessions.
    ServeSessionsReadmitted,
}

/// Every counter, in metrics-document order.
pub const ALL: [Counter; 33] = [
    Counter::SvdJacobiCalls,
    Counter::SvdJacobiSweeps,
    Counter::SvdRandomizedCalls,
    Counter::CacheHits,
    Counter::CacheMisses,
    Counter::EvalSamplesScored,
    Counter::EvalClozeMissingMask,
    Counter::EvalTokensForwarded,
    Counter::SweepPoints,
    Counter::SweepPointsFailed,
    Counter::SweepRetries,
    Counter::SweepPointsTimedOut,
    Counter::FaultsInjected,
    Counter::FaultSpecUnknownKinds,
    Counter::JournalPointsResumed,
    Counter::JournalLinesDropped,
    Counter::JournalRecordsMerged,
    Counter::SweepPointsShardSkipped,
    Counter::ExecutorJobs,
    Counter::ExecutorQueueWaitUs,
    Counter::ExecutorRunUs,
    Counter::HwsimSimulations,
    Counter::WarningsEmitted,
    Counter::GemmBytesPacked,
    Counter::ServeSessionsAdmitted,
    Counter::ServeSessionsRejected,
    Counter::ServeSessionsCompleted,
    Counter::ServeTokensGenerated,
    Counter::ServeDecodeBatches,
    Counter::ServeSessionsFailed,
    Counter::ServeSessionsTimedOut,
    Counter::ServeSessionsShed,
    Counter::ServeSessionsReadmitted,
];

impl Counter {
    /// Stable snake_case name used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Counter::SvdJacobiCalls => "svd_jacobi_calls",
            Counter::SvdJacobiSweeps => "svd_jacobi_sweeps",
            Counter::SvdRandomizedCalls => "svd_randomized_calls",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::EvalSamplesScored => "eval_samples_scored",
            Counter::EvalClozeMissingMask => "eval_cloze_missing_mask",
            Counter::EvalTokensForwarded => "eval_tokens_forwarded",
            Counter::SweepPoints => "sweep_points",
            Counter::SweepPointsFailed => "sweep_points_failed",
            Counter::SweepRetries => "sweep_retries",
            Counter::SweepPointsTimedOut => "sweep_points_timed_out",
            Counter::FaultsInjected => "faults_injected",
            Counter::FaultSpecUnknownKinds => "fault_spec_unknown_kinds",
            Counter::JournalPointsResumed => "journal_points_resumed",
            Counter::JournalLinesDropped => "journal_lines_dropped",
            Counter::JournalRecordsMerged => "journal_records_merged",
            Counter::SweepPointsShardSkipped => "sweep_points_shard_skipped",
            Counter::ExecutorJobs => "executor_jobs",
            Counter::ExecutorQueueWaitUs => "executor_queue_wait_us",
            Counter::ExecutorRunUs => "executor_run_us",
            Counter::HwsimSimulations => "hwsim_simulations",
            Counter::WarningsEmitted => "warnings_emitted",
            Counter::GemmBytesPacked => "gemm_bytes_packed",
            Counter::ServeSessionsAdmitted => "serve_sessions_admitted",
            Counter::ServeSessionsRejected => "serve_sessions_rejected",
            Counter::ServeSessionsCompleted => "serve_sessions_completed",
            Counter::ServeTokensGenerated => "serve_tokens_generated",
            Counter::ServeDecodeBatches => "serve_decode_batches",
            Counter::ServeSessionsFailed => "serve_sessions_failed",
            Counter::ServeSessionsTimedOut => "serve_sessions_timed_out",
            Counter::ServeSessionsShed => "serve_sessions_shed",
            Counter::ServeSessionsReadmitted => "serve_sessions_readmitted",
        }
    }

    #[cfg(feature = "collect")]
    fn index(self) -> usize {
        ALL.iter().position(|c| *c == self).expect("counter in ALL")
    }
}

#[cfg(feature = "collect")]
static SCALARS: [AtomicU64; ALL.len()] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    [ZERO; ALL.len()]
};

/// Adds `delta` to a scalar counter.
#[inline]
pub fn add(counter: Counter, delta: u64) {
    #[cfg(feature = "collect")]
    SCALARS[counter.index()].fetch_add(delta, Ordering::Relaxed);
    #[cfg(not(feature = "collect"))]
    let _ = (counter, delta);
}

/// Current value of a scalar counter (0 when collection is compiled out).
#[inline]
pub fn get(counter: Counter) -> u64 {
    #[cfg(feature = "collect")]
    return SCALARS[counter.index()].load(Ordering::Relaxed);
    #[cfg(not(feature = "collect"))]
    {
        let _ = counter;
        0
    }
}

/// Snapshot of every scalar counter as `(name, value)` pairs.
pub fn snapshot() -> Vec<(&'static str, u64)> {
    ALL.iter().map(|&c| (c.name(), get(c))).collect()
}

/// Cells of the GEMM matrix, one per kind of product `lrd-tensor::matmul`
/// runs. `Batched`, `Matvec` and `MatvecTransB` are recorded by no entry
/// point, so their cells always read 0; they keep the metrics document's
/// set of cells fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmVariant {
    /// Plain `A · B` (`gemm` with `Trans::No`).
    Matmul,
    /// `Aᵀ · B` (`gemm` with `Trans::A`; pack-time transposition).
    MatmulTransA,
    /// `A · Bᵀ` (`gemm` with `Trans::B`; pack-time transposition).
    MatmulTransB,
    /// Batched order-3 GEMM. Recorded by no entry point.
    Batched,
    /// Matrix–vector product. Recorded by no entry point.
    Matvec,
    /// `aᵀ · x` matrix–vector product. Recorded by no entry point.
    MatvecTransB,
    /// Fused three-stage factored product `((x·U1)·Γ)·U2` through one
    /// blocked pipeline with prepacked factor panels.
    FactoredFused,
}

/// Every GEMM variant, in metrics-document order.
pub const GEMM_VARIANTS: [GemmVariant; 7] = [
    GemmVariant::Matmul,
    GemmVariant::MatmulTransA,
    GemmVariant::MatmulTransB,
    GemmVariant::Batched,
    GemmVariant::Matvec,
    GemmVariant::MatvecTransB,
    GemmVariant::FactoredFused,
];

/// Storage dtypes of packed weight panels the GEMM matrix distinguishes.
/// Index 0 is the `f32` reference; reduced-precision panel runs land in
/// their own cells so per-dtype throughput can be read from one document.
pub const GEMM_DTYPES: [&str; 3] = ["f32", "bf16", "f16"];

impl GemmVariant {
    /// Stable name used as the JSON value.
    pub fn name(self) -> &'static str {
        match self {
            GemmVariant::Matmul => "matmul",
            GemmVariant::MatmulTransA => "matmul_transa",
            GemmVariant::MatmulTransB => "matmul_transb",
            GemmVariant::Batched => "batched_matmul",
            GemmVariant::Matvec => "matvec",
            GemmVariant::MatvecTransB => "matvec_transb",
            GemmVariant::FactoredFused => "factored_fused",
        }
    }

    #[cfg(feature = "collect")]
    fn index(self) -> usize {
        GEMM_VARIANTS
            .iter()
            .position(|v| *v == self)
            .expect("variant in GEMM_VARIANTS")
    }
}

/// Calls and FLOPs of one (variant, backend, dtype) GEMM cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmCounter {
    /// GEMM entry-point name.
    pub variant: &'static str,
    /// Kernel backend name (`"scalar"` or the SIMD dispatch name).
    pub backend: &'static str,
    /// Packed weight-panel storage dtype (one of [`GEMM_DTYPES`]).
    pub dtype: &'static str,
    /// Number of calls.
    pub calls: u64,
    /// Total floating-point operations (2 per multiply-add).
    pub flops: u64,
}

// Backend axis: the kernel dispatch is resolved once per process, so at
// most two backends exist — the scalar reference and one SIMD kernel.
#[cfg(feature = "collect")]
static SIMD_BACKEND_NAME: OnceLock<&'static str> = OnceLock::new();

#[cfg(feature = "collect")]
struct GemmCell {
    calls: AtomicU64,
    flops: AtomicU64,
}

#[cfg(feature = "collect")]
static GEMM: [[[GemmCell; GEMM_DTYPES.len()]; 2]; GEMM_VARIANTS.len()] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const CELL: GemmCell = GemmCell {
        calls: AtomicU64::new(0),
        flops: AtomicU64::new(0),
    };
    #[allow(clippy::declare_interior_mutable_const)]
    const COL: [GemmCell; GEMM_DTYPES.len()] = [CELL; GEMM_DTYPES.len()];
    #[allow(clippy::declare_interior_mutable_const)]
    const ROW: [[GemmCell; GEMM_DTYPES.len()]; 2] = [COL; 2];
    [ROW; GEMM_VARIANTS.len()]
};

#[cfg(feature = "collect")]
fn dtype_index(dtype: &str) -> usize {
    GEMM_DTYPES.iter().position(|d| *d == dtype).unwrap_or(0)
}

/// Records one GEMM call of `flops` floating-point operations on the
/// named kernel backend with B panels stored at `dtype` (one of
/// [`GEMM_DTYPES`]; unknown names land in the `f32` cell). Lock-free;
/// intended for the dispatch hot path.
#[inline]
pub fn record_gemm(variant: GemmVariant, backend: &'static str, dtype: &'static str, flops: u64) {
    #[cfg(feature = "collect")]
    {
        let b = if backend == "scalar" {
            0
        } else {
            SIMD_BACKEND_NAME.get_or_init(|| backend);
            1
        };
        let cell = &GEMM[variant.index()][b][dtype_index(dtype)];
        cell.calls.fetch_add(1, Ordering::Relaxed);
        cell.flops.fetch_add(flops, Ordering::Relaxed);
    }
    #[cfg(not(feature = "collect"))]
    let _ = (variant, backend, dtype, flops);
}

/// Snapshot of every non-empty (variant, backend, dtype) GEMM cell.
pub fn gemm_snapshot() -> Vec<GemmCounter> {
    #[cfg(feature = "collect")]
    {
        let mut out = Vec::new();
        for &variant in &GEMM_VARIANTS {
            for (b, backend) in [
                (0usize, "scalar"),
                (1, SIMD_BACKEND_NAME.get().copied().unwrap_or("simd")),
            ] {
                for (d, dtype) in GEMM_DTYPES.iter().enumerate() {
                    let cell = &GEMM[variant.index()][b][d];
                    let calls = cell.calls.load(Ordering::Relaxed);
                    if calls > 0 {
                        out.push(GemmCounter {
                            variant: variant.name(),
                            backend,
                            dtype,
                            calls,
                            flops: cell.flops.load(Ordering::Relaxed),
                        });
                    }
                }
            }
        }
        out
    }
    #[cfg(not(feature = "collect"))]
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_counters_are_monotone() {
        let before = get(Counter::SweepPoints);
        add(Counter::SweepPoints, 3);
        add(Counter::SweepPoints, 2);
        let after = get(Counter::SweepPoints);
        if crate::enabled() {
            assert!(after >= before + 5);
        } else {
            assert_eq!(after, 0);
        }
        assert_eq!(snapshot().len(), ALL.len());
    }

    #[test]
    fn gemm_cells_accumulate_by_variant_and_backend() {
        let before: u64 = gemm_snapshot()
            .iter()
            .filter(|g| g.variant == "matvec" && g.backend == "scalar")
            .map(|g| g.calls)
            .sum();
        record_gemm(GemmVariant::Matvec, "scalar", "f32", 128);
        record_gemm(GemmVariant::Matvec, "scalar", "f32", 64);
        let cell: Vec<_> = gemm_snapshot()
            .into_iter()
            .filter(|g| g.variant == "matvec" && g.backend == "scalar" && g.dtype == "f32")
            .collect();
        if crate::enabled() {
            assert_eq!(cell.len(), 1);
            assert!(cell[0].calls >= before + 2);
            assert!(cell[0].flops >= 192);
        } else {
            assert!(cell.is_empty());
        }
    }

    #[test]
    fn typed_cells_split_by_dtype() {
        record_gemm(GemmVariant::FactoredFused, "scalar", "bf16", 1000);
        record_gemm(GemmVariant::FactoredFused, "scalar", "f32", 500);
        let cells: Vec<_> = gemm_snapshot()
            .into_iter()
            .filter(|g| g.variant == "factored_fused" && g.backend == "scalar")
            .collect();
        if crate::enabled() {
            assert!(cells.iter().any(|g| g.dtype == "bf16" && g.flops >= 1000));
            assert!(cells.iter().any(|g| g.dtype == "f32" && g.flops >= 500));
        } else {
            assert!(cells.is_empty());
        }
    }

    #[test]
    fn counter_names_are_unique() {
        let mut names: Vec<_> = ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len());
    }
}
