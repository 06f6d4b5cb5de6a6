//! # lrd-trace
//!
//! Structured telemetry for the characterization pipeline. The paper's
//! contribution is a *measurement* — every figure is a sweep of timed,
//! counted work — so the workspace instruments its hot paths through one
//! shared, thread-safe sink instead of ad-hoc prints:
//!
//! * [`span`](mod@span) — hierarchical RAII timing spans
//!   (`let _s = span("decompose", "layer 3");`) at sweep/point/phase
//!   granularity, linked parent→child per thread.
//! * [`counters`] — monotonically-aggregated atomic counters: SVD
//!   invocations, GEMM calls/FLOPs by variant and backend, cache
//!   hits/misses, eval samples scored, sweep points failed.
//! * [`event`](mod@event) — one-shot structured records (name + label + numeric
//!   fields) for things that are neither durations nor monotone counts,
//!   e.g. a hardware-simulator report breakdown.
//! * [`hist`] — exact-sample latency histograms with nearest-rank
//!   percentiles, the per-token latency / TTFT distributions the serving
//!   loop reports.
//! * [`json`] + [`report`] — a dependency-free JSON writer/parser and the
//!   versioned metrics document (`schema_version` [`report::SCHEMA_VERSION`])
//!   that `repro --metrics <path>` emits and CI validates.
//!
//! Everything is gated behind the default-on `collect` feature: with it
//! disabled all recording calls compile to inlined no-ops and snapshots
//! return empty, so the instrumentation can be compiled out entirely.
//! Overhead with `collect` on is a couple of relaxed atomic adds per GEMM
//! and a mutex push per span — spans are only placed at sweep/point/phase
//! granularity, never inside kernels.

pub mod counters;
pub mod event;
pub mod hist;
pub mod json;
pub mod report;
pub mod span;
pub mod warn;

pub use counters::Counter;
pub use event::event;
pub use hist::{Histogram, HistogramSummary};
pub use span::{span, SpanGuard};
pub use warn::warn;

/// Whether the `collect` feature compiled the collectors in.
pub const fn enabled() -> bool {
    cfg!(feature = "collect")
}
