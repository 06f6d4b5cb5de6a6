//! Metric names, units and the result line.
//!
//! Every run prints every metric of its kind: the end-to-end set when
//! untraced, the per-layer set when traced. A per-layer metric of a layer
//! the workload does not exercise reads 0.

use lrd_eval::tasks::registry;
use lrd_trace::counters::GEMM_VARIANTS;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB")];

/// The seven Llama projection slots, in `visit_linears` order.
pub const SLOTS: [&str; 7] = ["wq", "wk", "wv", "wo", "gate", "up", "down"];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    for (n, u) in [
        ("serve.loop_s", "s"),
        ("serve.decode_steps", "count"),
        ("serve.mean_batch", "rows"),
        ("serve.sessions_completed", "count"),
        ("serve.sessions_failed", "count"),
        ("serve.ttft_p50_ms", "ms"),
        ("serve.ttft_p95_ms", "ms"),
        ("serve.itl_p50_ms", "ms"),
        ("serve.itl_p99_ms", "ms"),
    ] {
        add(n.into(), u);
    }
    for b in [1, 8, 32] {
        add(format!("nn.decode_step_ms.b{b}"), "ms");
    }
    for op in ["attn_decode", "mlp_infer", "norm_infer", "lm_head"] {
        add(format!("nn.{op}_us.b32"), "us");
    }
    for kind in ["dense", "factored"] {
        for slot in SLOTS {
            add(format!("nn.linear_infer_us.{kind}.{slot}.b32"), "us");
        }
    }
    add("nn.logits_ms.prefill".into(), "ms");
    for phase in ["forward", "backward", "optim"] {
        add(format!("nn.{phase}_ms.train"), "ms");
    }
    for v in GEMM_VARIANTS {
        add(format!("tensor.gemm_calls.{}", v.name()), "count");
        add(format!("tensor.gemm_gflop.{}", v.name()), "GFLOP");
    }
    add("tensor.gemm_bytes_packed".into(), "bytes");
    for kernel in ["matmul_transb", "factored_plan"] {
        for shape in ["decode", "prefill"] {
            add(format!("tensor.{kernel}_gflops.{shape}"), "GFLOP/s");
            add(format!("tensor.{kernel}_gbps.{shape}"), "GB/s");
        }
    }
    for n in [
        "svd_jacobi_calls",
        "svd_jacobi_sweeps",
        "svd_randomized_calls",
    ] {
        add(format!("tensor.{n}"), "count");
    }
    for (n, u) in [
        ("core.decompose_s", "s"),
        ("core.cache_hits", "count"),
        ("core.cache_misses", "count"),
        ("core.cache_hit_rate", "ratio"),
        ("core.executor_jobs", "count"),
        ("core.executor_queue_wait_us", "us"),
        ("core.executor_run_us", "us"),
        ("core.sweep_points", "count"),
        ("core.sweep_points_failed", "count"),
        ("core.recover_s", "s"),
    ] {
        add(n.into(), u);
    }
    for b in registry() {
        add(format!("eval.score_s.{}", bench_key(b.name())), "s");
    }
    add("eval.samples_scored".into(), "count");
    add("eval.samples_per_s".into(), "1/s");
    add("trace.overhead_pct".into(), "%");
    m
}

/// A benchmark's display name as a metric-name component.
pub fn bench_key(name: &str) -> String {
    name.replace(' ', "_")
}

/// Whether `name` is a well-formed metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The metrics of one run, in declaration order, every one defaulting to 0.
pub struct Metrics {
    values: Vec<(String, &'static str, f64)>,
}

impl Metrics {
    /// All end-to-end metrics (`traced == false`) or all per-layer ones.
    pub fn new(traced: bool) -> Metrics {
        let names: Vec<(String, &'static str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        for (n, _) in &names {
            assert!(valid_name(n), "malformed metric name {n:?}");
        }
        Metrics {
            values: names.into_iter().map(|(n, u)| (n, u, 0.0)).collect(),
        }
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name: every name is fixed in this module.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        slot.2 = value;
    }

    /// The names in output order.
    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.iter().map(|(n, _, _)| n.as_str())
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`. A non-finite value renders as 0.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(n, u, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        )
    }
}

/// A `u64` as a fixed-width hex string: JSON numbers are doubles and
/// would round values above 2^53.
pub fn hex(v: u64) -> String {
    format!("0x{v:016x}")
}

/// Parses [`hex`] output.
pub fn parse_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrd_trace::json::{parse, Json};

    /// The per-layer names the benchmark's specification lists, with the
    /// `<variant>`/`<benchmark>` families expanded.
    fn specified() -> Vec<String> {
        let mut v: Vec<String> = [
            "serve.loop_s",
            "serve.decode_steps",
            "serve.mean_batch",
            "serve.sessions_completed",
            "serve.sessions_failed",
            "nn.decode_step_ms.b1",
            "nn.decode_step_ms.b8",
            "nn.decode_step_ms.b32",
            "nn.attn_decode_us.b32",
            "nn.mlp_infer_us.b32",
            "nn.norm_infer_us.b32",
            "nn.lm_head_us.b32",
            "nn.logits_ms.prefill",
            "nn.forward_ms.train",
            "nn.backward_ms.train",
            "nn.optim_ms.train",
            "tensor.gemm_bytes_packed",
            "tensor.matmul_transb_gflops.decode",
            "tensor.matmul_transb_gflops.prefill",
            "tensor.factored_plan_gflops.decode",
            "tensor.factored_plan_gflops.prefill",
            "tensor.svd_jacobi_calls",
            "tensor.svd_jacobi_sweeps",
            "tensor.svd_randomized_calls",
            "core.decompose_s",
            "core.cache_hits",
            "core.cache_misses",
            "core.cache_hit_rate",
            "core.executor_jobs",
            "core.executor_queue_wait_us",
            "core.executor_run_us",
            "core.sweep_points",
            "core.sweep_points_failed",
            "core.recover_s",
            "eval.samples_scored",
            "eval.samples_per_s",
            "trace.overhead_pct",
        ]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
        for kind in ["dense", "factored"] {
            for slot in SLOTS {
                v.push(format!("nn.linear_infer_us.{kind}.{slot}.b32"));
            }
        }
        for variant in [
            "matmul",
            "matmul_transa",
            "matmul_transb",
            "batched_matmul",
            "matvec",
            "matvec_transb",
            "factored_fused",
        ] {
            v.push(format!("tensor.gemm_calls.{variant}"));
            v.push(format!("tensor.gemm_gflop.{variant}"));
        }
        for b in [
            "ARC_Easy",
            "ARC_Challenge",
            "HellaSwag",
            "MMLU",
            "TruthfulQA",
            "WinoGrande",
            "GSM8K",
        ] {
            v.push(format!("eval.score_s.{b}"));
        }
        v
    }

    #[test]
    fn every_name_is_well_formed_unique_and_specified() {
        for traced in [false, true] {
            let m = Metrics::new(traced);
            let names: Vec<&str> = m.names().collect();
            for n in &names {
                assert!(valid_name(n), "malformed metric name {n:?}");
            }
            let mut dedup = names.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), names.len(), "duplicate metric name");
        }
        let emitted: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        for want in specified() {
            assert!(emitted.contains(&want), "{want} is not emitted");
        }
        // Beyond the specified set the traced run adds only the serve
        // latency percentiles and the computed bytes-moved rates.
        for name in &emitted {
            assert!(
                specified().contains(name)
                    || name.starts_with("serve.ttft_")
                    || name.starts_with("serve.itl_")
                    || name.contains("_gbps."),
                "{name} is not a specified metric"
            );
        }
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert!(e2e.contains(&"setup_s"));
        assert!(!valid_name("bad name"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_is_json_with_exactly_the_four_keys() {
        let mut m = Metrics::new(false);
        m.set("op_s", 1.25);
        let line = m.result_line(7, 0);
        let doc = parse(&line).expect("result line parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let op = doc.get("metrics").and_then(|x| x.get("op_s"));
        assert_eq!(op.and_then(|x| x.get("value")), Some(&Json::Num(1.25)));
        let failed = parse(&m.result_line(7, 1)).expect("parses");
        assert_eq!(failed.get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn checksum_above_2_pow_53_round_trips_exactly() {
        let v = (1u64 << 53) + 1;
        assert_ne!(v as f64 as u64, v, "the value must not survive f64");
        let doc = Json::obj([("stream_checksum", Json::str(hex(v)))]).render_compact();
        let back = parse(&doc).expect("parses");
        let s = back.get("stream_checksum").and_then(Json::as_str);
        assert_eq!(s.and_then(parse_hex), Some(v));
        assert_eq!(parse_hex(&hex(u64::MAX)), Some(u64::MAX));
        assert_eq!(parse_hex("12"), None);
    }
}
