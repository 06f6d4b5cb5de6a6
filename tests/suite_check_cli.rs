//! CLI contract of `metrics_check --suite … --require-serve` on the serve
//! section of a `BENCH_suite.json`: a suite whose every variant completed
//! sessions passes (exit 0); a variant whose batched run completed no
//! session fails (exit 1), because its bit-identity verdict compares two
//! empty streams; and a checksum written as a JSON number, which rounds
//! above 2⁵³, fails (exit 1). A `repro` run with fault injection active
//! writes its suite to `BENCH_suite.chaos.json` and leaves the fault-free
//! `BENCH_suite.json` alone; a chaos `repro serve` run likewise writes
//! `artifacts/serve.chaos.csv` and leaves the fault-free `serve.csv` alone.

use lrd_serve::ServeReport;
use lrd_trace::json::Json;
use lrd_trace::Histogram;
use std::process::{Command, Output};

/// A serve run in which `completed` of 10 offered sessions completed and
/// the rest failed.
fn run(label: &str, completed: u64) -> ServeReport {
    let mut hist = Histogram::new();
    hist.record(1.0);
    let tokens = 4 * completed;
    ServeReport {
        label: label.into(),
        offered: 10,
        rejected: 0,
        failed: 10 - completed,
        shed: 0,
        timed_out: 0,
        readmitted: 0,
        completed,
        batches: tokens,
        tokens,
        mean_batch: 1.0,
        wall_s: 0.5,
        tokens_per_s: tokens as f64 / 0.5,
        healthy_tokens: tokens,
        goodput_tokens_per_s: tokens as f64 / 0.5,
        ttft_ms: hist.summary(),
        per_token_ms: hist.summary(),
        stream_checksum: 0xcbf2_9ce4_8422_2325,
    }
}

/// A suite document whose serve section holds a dense variant and three
/// factored ones; `completed[i]` sessions completed in variant `i`.
fn suite(completed: [u64; 4]) -> Json {
    let labels = [("dense", 0.0), ("6%", 5.8), ("15%", 14.5), ("33%", 31.9)];
    let variants = labels.iter().zip(completed).map(|(&(label, pct), done)| {
        Json::obj([
            ("label", Json::str(label)),
            ("reduction_pct", Json::num(pct)),
            ("batched", run(label, done).to_json()),
            ("sequential", run(label, done).to_json()),
            ("speedup", Json::num(1.5)),
            ("bit_identical", Json::Bool(true)),
        ])
    });
    Json::obj([
        ("schema", Json::str(lrd_bench::SUITE_SCHEMA_NAME)),
        (
            "schema_version",
            Json::uint(lrd_bench::SUITE_SCHEMA_VERSION),
        ),
        ("command", Json::str("serve")),
        ("wall_s", Json::num(1.0)),
        ("workers", Json::uint(0)),
        ("samples", Json::uint(80)),
        ("steps", Json::uint(600)),
        ("cache", Json::obj([("hit_rate", Json::num(0.0))])),
        ("kernel_backend", Json::str("scalar")),
        ("kernel_dtype", Json::str("f32")),
        ("gemm_bytes_packed", Json::uint(1)),
        (
            "serve",
            Json::obj([
                ("sessions", Json::uint(10)),
                ("trace_seed", Json::uint(1)),
                ("max_batch", Json::uint(32)),
                ("faults_active", Json::Bool(false)),
                ("deadline_steps", Json::uint(0)),
                ("shed_high_water", Json::uint(0)),
                ("max_admit_per_step", Json::uint(0)),
                ("variants", Json::Arr(variants.collect())),
            ]),
        ),
    ])
}

/// Runs `metrics_check --suite <doc> --require-serve` on `text`.
fn check(tag: &str, text: &str) -> Output {
    let path =
        std::env::temp_dir().join(format!("lrd-suite-cli-{tag}-{}.json", std::process::id()));
    std::fs::write(&path, text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_metrics_check"))
        .args(["--suite", path.to_str().unwrap(), "--require-serve"])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    out
}

#[test]
fn suite_with_completed_sessions_passes() {
    let out = check("ok", &suite([10, 9, 8, 7]).render());
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn variant_with_no_completed_session_exits_1() {
    let out = check("empty", &suite([10, 0, 8, 7]).render());
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("serve.variants[1]") && stderr.contains("no batched session completed"),
        "stderr must name the empty variant: {stderr}"
    );
}

#[test]
fn numeric_stream_checksum_exits_1() {
    let hex = "\"0xcbf29ce484222325\"";
    let text = suite([10, 9, 8, 7]).render();
    assert!(text.contains(hex));
    let out = check("numeric", &text.replacen(hex, "14695981039346656037", 1));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("stream_checksum"));
}

#[test]
fn chaos_run_writes_its_own_suite_file() {
    let cwd = std::env::temp_dir().join(format!("lrd-chaos-suite-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table2", "--faults", "svd:0.5,seed:1"])
        .current_dir(&cwd)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(cwd.join("BENCH_suite.chaos.json").is_file());
    assert!(!cwd.join("BENCH_suite.json").exists());
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn chaos_serve_run_writes_its_own_serving_table() {
    let cwd = std::env::temp_dir().join(format!("lrd-chaos-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).unwrap();
    // `--steps 2` trains (and caches under `cwd/artifacts/`) a two-step
    // model in about a second instead of needing the 600-step checkpoint;
    // the fault spec is CI's serve-chaos one.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--fast", "--steps", "2", "--sessions", "8"])
        .args([
            "--faults",
            "nan-logits:0.1,decode-panic:0.05,slow-step:0.1,seed:42",
        ])
        .current_dir(&cwd)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let artifacts = cwd.join("artifacts");
    assert!(artifacts.join("serve.chaos.csv").is_file());
    assert!(!artifacts.join("serve.csv").exists());
    assert!(cwd.join("BENCH_suite.chaos.json").is_file());
    let _ = std::fs::remove_dir_all(&cwd);
}
