//! Serving run reports: latency percentiles, throughput, goodput, typed
//! session fates, and a stream checksum for bit-identity comparisons.

use lrd_trace::json::Json;
use lrd_trace::HistogramSummary;

/// The token stream one completed session produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The originating request's id.
    pub id: usize,
    /// Generated tokens, in order.
    pub tokens: Vec<usize>,
}

/// Why a session settled as [`SessionFate::Failed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailReason {
    /// Pre-batch validation rejected the request; the string names the
    /// violated check.
    Admission(&'static str),
    /// A non-finite value surfaced in the session's logits row (a real
    /// numeric fault or an injected `nan-logits` one — the guard cannot
    /// and need not tell them apart).
    NonFiniteLogits,
    /// The session's slot panicked mid-decode and was caught by the
    /// per-slot `catch_unwind` fence; the string is the panic message.
    Panic(String),
    /// The decode kernel rejected the batch this session was packed in.
    DecodeError(String),
}

impl FailReason {
    /// Stable snake_case tag for CSV cells and JSON breakdowns.
    pub fn tag(&self) -> &'static str {
        match self {
            FailReason::Admission(_) => "admission",
            FailReason::NonFiniteLogits => "non_finite_logits",
            FailReason::Panic(_) => "panic",
            FailReason::DecodeError(_) => "decode_error",
        }
    }
}

/// Terminal state of a session that did not run to completion.
///
/// Every offered request ends in exactly one of: completed, rejected
/// (admission queue full), or one of these fates — the accounting
/// identity `completed + rejected + failed + shed + timed_out == offered`
/// is asserted by `metrics_check`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionFate {
    /// Settled with a typed failure (validation, numeric fault, panic).
    Failed(FailReason),
    /// Exceeded its virtual-time decode deadline.
    TimedOut,
    /// Pushed out of the admission queue by load shedding and not
    /// successfully re-admitted.
    Shed,
}

impl SessionFate {
    /// Stable snake_case tag for CSV cells and JSON breakdowns.
    pub fn tag(&self) -> &'static str {
        match self {
            SessionFate::Failed(r) => r.tag(),
            SessionFate::TimedOut => "timed_out",
            SessionFate::Shed => "shed",
        }
    }
}

/// One settled (non-completed, non-rejected) session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Settled {
    /// The originating request's id.
    pub id: usize,
    /// Why the session will never complete.
    pub fate: SessionFate,
}

/// Everything a serving run yields: the aggregate report, the raw
/// per-session completions (for bit-identity checks against another run
/// of the same trace), and the typed fate of every session that did not
/// complete.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Aggregate metrics.
    pub report: ServeReport,
    /// Completed sessions, in completion order.
    pub completions: Vec<Completion>,
    /// Settled sessions, in settlement order.
    pub settled: Vec<Settled>,
}

/// Aggregate metrics of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Human label ("dense", "15%", …).
    pub label: String,
    /// Requests in the trace.
    pub offered: u64,
    /// Requests turned away by the bounded admission queue.
    pub rejected: u64,
    /// Sessions settled as [`SessionFate::Failed`] (validation, a
    /// non-finite logits row, or a quarantined slot panic).
    pub failed: u64,
    /// Sessions permanently shed by the load shedder (a shed followed by
    /// a successful re-admission does not count here).
    pub shed: u64,
    /// Sessions settled by the virtual-time decode deadline.
    pub timed_out: u64,
    /// Re-admission attempts granted to shed sessions (informational —
    /// not part of the accounting identity).
    pub readmitted: u64,
    /// Sessions that ran to completion.
    pub completed: u64,
    /// Batched decode steps executed.
    pub batches: u64,
    /// Tokens generated across all sessions.
    pub tokens: u64,
    /// Mean in-flight sessions per decode step.
    pub mean_batch: f64,
    /// Wall-clock duration of the run.
    pub wall_s: f64,
    /// Aggregate generated tokens per second.
    pub tokens_per_s: f64,
    /// Tokens that reached a *completed* session's stream — work spent on
    /// sessions that later failed or timed out is excluded.
    pub healthy_tokens: u64,
    /// Goodput: healthy tokens per second. The SLO headline — under
    /// chaos, `tokens_per_s` counts wasted decode work while this does
    /// not.
    pub goodput_tokens_per_s: f64,
    /// Time-to-first-token distribution, milliseconds.
    pub ttft_ms: HistogramSummary,
    /// Per-token latency distribution (the wall time of the decode step
    /// that produced each token), milliseconds.
    pub per_token_ms: HistogramSummary,
    /// FNV-1a checksum over the completed token streams in request-id
    /// order; equal checksums ⇒ bit-identical streams (up to hash
    /// collision), comparable across hosts and batch sizes.
    pub stream_checksum: u64,
}

impl ServeReport {
    /// The suite/metrics JSON shape of this report (`BENCH_suite.json`
    /// schema v5 `serve.variants[].batched` / `.sequential` entries).
    pub fn to_json(&self) -> Json {
        let round3 = |v: f64| (v * 1000.0).round() / 1000.0;
        Json::obj([
            ("label", Json::str(self.label.clone())),
            ("offered", Json::uint(self.offered)),
            ("rejected", Json::uint(self.rejected)),
            ("failed", Json::uint(self.failed)),
            ("shed", Json::uint(self.shed)),
            ("timed_out", Json::uint(self.timed_out)),
            ("readmitted", Json::uint(self.readmitted)),
            ("completed", Json::uint(self.completed)),
            ("batches", Json::uint(self.batches)),
            ("tokens", Json::uint(self.tokens)),
            ("mean_batch", Json::num(round3(self.mean_batch))),
            ("wall_s", Json::num(round3(self.wall_s))),
            ("tokens_per_s", Json::num(round3(self.tokens_per_s))),
            ("healthy_tokens", Json::uint(self.healthy_tokens)),
            (
                "goodput_tokens_per_s",
                Json::num(round3(self.goodput_tokens_per_s)),
            ),
            ("ttft_ms", self.ttft_ms.to_json()),
            ("per_token_ms", self.per_token_ms.to_json()),
            ("stream_checksum", Json::hex(self.stream_checksum)),
        ])
    }
}

/// FNV-1a over `(id, len, tokens…)` of every completion in request-id
/// order. Completion *order* is excluded deliberately: the batched and
/// sequential servers finish sessions in different orders but must
/// produce the same streams.
pub fn stream_checksum(completions: &[Completion]) -> u64 {
    let mut by_id: Vec<&Completion> = completions.iter().collect();
    by_id.sort_by_key(|c| c.id);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for c in by_id {
        mix(c.id as u64);
        mix(c.tokens.len() as u64);
        for &t in &c.tokens {
            mix(t as u64);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comp(id: usize, tokens: &[usize]) -> Completion {
        Completion {
            id,
            tokens: tokens.to_vec(),
        }
    }

    #[test]
    fn checksum_ignores_completion_order() {
        let a = vec![comp(0, &[1, 2]), comp(1, &[3])];
        let b = vec![comp(1, &[3]), comp(0, &[1, 2])];
        assert_eq!(stream_checksum(&a), stream_checksum(&b));
    }

    #[test]
    fn checksum_sees_stream_contents_and_boundaries() {
        let a = vec![comp(0, &[1, 2]), comp(1, &[3])];
        let flipped = vec![comp(0, &[1, 3]), comp(1, &[2])];
        let moved = vec![comp(0, &[1, 2, 3]), comp(1, &[])];
        assert_ne!(stream_checksum(&a), stream_checksum(&flipped));
        assert_ne!(stream_checksum(&a), stream_checksum(&moved));
    }

    #[test]
    fn report_renders_to_json() {
        let r = ServeReport {
            label: "dense".into(),
            offered: 6,
            rejected: 1,
            failed: 1,
            shed: 1,
            timed_out: 0,
            readmitted: 1,
            completed: 3,
            batches: 10,
            tokens: 30,
            mean_batch: 2.5,
            wall_s: 0.5,
            tokens_per_s: 60.0,
            healthy_tokens: 25,
            goodput_tokens_per_s: 50.0,
            ttft_ms: lrd_trace::Histogram::new().summary(),
            per_token_ms: lrd_trace::Histogram::new().summary(),
            // Above 2⁵³: a JSON number would round it.
            stream_checksum: 0xcbf2_9ce4_8422_2325,
        };
        let j = r.to_json();
        assert_eq!(j.get("label").and_then(Json::as_str), Some("dense"));
        assert_eq!(j.get("tokens_per_s").and_then(Json::as_num), Some(60.0));
        assert_eq!(j.get("shed").and_then(Json::as_num), Some(1.0));
        assert_eq!(
            j.get("goodput_tokens_per_s").and_then(Json::as_num),
            Some(50.0)
        );
        assert!(j.get("per_token_ms").and_then(|p| p.get("p99")).is_some());
        let back = lrd_trace::json::parse(&j.render()).unwrap();
        assert_eq!(
            back.get("stream_checksum").and_then(Json::as_hex),
            Some(r.stream_checksum),
            "the checksum must survive render → parse exactly"
        );
    }

    #[test]
    fn fate_tags_are_stable() {
        assert_eq!(
            SessionFate::Failed(FailReason::NonFiniteLogits).tag(),
            "non_finite_logits"
        );
        assert_eq!(
            SessionFate::Failed(FailReason::Panic("boom".into())).tag(),
            "panic"
        );
        assert_eq!(
            SessionFate::Failed(FailReason::Admission("empty prompt")).tag(),
            "admission"
        );
        assert_eq!(SessionFate::TimedOut.tag(), "timed_out");
        assert_eq!(SessionFate::Shed.tag(), "shed");
    }
}
