//! Validates a metrics document written by `repro --metrics <path>`,
//! and/or a `BENCH_suite.json` perf document.
//!
//! ```text
//! metrics_check <path> [--require-nonzero counter1,counter2,...]
//!               [--suite BENCH_suite.json] [--require-serve]
//!               [--journal merged.jsonl]
//! ```
//!
//! For the metrics document: checks the schema identity and version, the
//! presence and finiteness of every required number, that every named
//! counter appears, and the cache invariant `hits + misses == lookups`.
//! With `--require-nonzero`, the named counters must additionally be
//! strictly positive — the chaos CI job uses this to prove faults were
//! actually injected and retried.
//!
//! For the suite document (`--suite`): checks the v5 layout — per-dtype
//! `kernel_gflops` groups with positive throughputs, a resolved
//! `kernel_dtype`, nonzero `gemm_bytes_packed`, and (when present, or
//! demanded by `--require-serve`) the `serve` section: ordered latency
//! percentiles, positive throughput and goodput, the degradation
//! accounting identity `completed + rejected + failed + shed + timed_out
//! == offered`, every `stream_checksum` as an exact 16-digit hex string,
//! and a `true` batched-vs-sequential bit-identity verdict for every
//! variant — the serve-smoke and serve-chaos CI jobs' pass condition.
//! `--require-serve` also demands that every variant's batched run
//! completed at least one session: a verdict over two empty streams
//! compares nothing.
//!
//! For a merged journal (`--journal`): checks that every line parses as
//! an `lrd-journal` v1 record, that no `(figure, fingerprint)` key repeats
//! (a merged journal is canonical — `repro journal-merge` collapsed the
//! duplicates), and that at least one record is present — the shard-merge
//! CI job's pass condition.
//!
//! Exits non-zero with a message on the first violation — CI runs this
//! against a fresh `fig9 --fast` run.

use lrd_trace::json::{parse, Json};
use lrd_trace::report::{SCHEMA_NAME, SCHEMA_VERSION};

fn fail(msg: &str) -> ! {
    eprintln!("metrics_check: FAIL: {msg}");
    std::process::exit(1);
}

/// A finite number at `key` of `obj`, or die.
fn require_num(obj: &Json, section: &str, key: &str) -> f64 {
    match obj.get(key).and_then(lrd_trace::json::Json::as_num) {
        Some(n) => n,
        None => fail(&format!("{section}.{key} missing or not a finite number")),
    }
}

fn require_str<'a>(obj: &'a Json, section: &str, key: &str) -> &'a str {
    match obj.get(key).and_then(|v| v.as_str()) {
        Some(s) => s,
        None => fail(&format!("{section}.{key} missing or not a string")),
    }
}

fn require_obj<'a>(doc: &'a Json, key: &str) -> &'a Json {
    match doc.get(key) {
        Some(v) if v.as_obj().is_some() => v,
        _ => fail(&format!("top-level object \"{key}\" missing")),
    }
}

fn require_arr<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key).and_then(|v| v.as_arr()) {
        Some(v) => v,
        None => fail(&format!("top-level array \"{key}\" missing")),
    }
}

/// Parses a JSON document from disk, dying with context on failure.
fn load_doc(path: &str) -> Json {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => fail(&format!("cannot read {path}: {e}")),
    };
    match parse(&text) {
        Ok(d) => d,
        Err(e) => fail(&format!("{path} is not valid JSON: {e}")),
    }
}

/// Validates one serving-run report object (`serve.variants[i].batched` /
/// `.sequential`): counts consistent, percentiles ordered, throughput
/// positive when tokens were generated. Returns the completed sessions.
fn check_serve_run(run: &Json, section: &str) -> f64 {
    let offered = require_num(run, section, "offered");
    let completed = require_num(run, section, "completed");
    let rejected = require_num(run, section, "rejected");
    let failed = require_num(run, section, "failed");
    let shed = require_num(run, section, "shed");
    let timed_out = require_num(run, section, "timed_out");
    require_num(run, section, "readmitted");
    if completed + rejected + failed + shed + timed_out != offered {
        fail(&format!(
            "{section}: completed {completed} + rejected {rejected} + failed {failed} \
             + shed {shed} + timed_out {timed_out} != offered {offered}"
        ));
    }
    let tokens = require_num(run, section, "tokens");
    if completed > 0.0 && tokens <= 0.0 {
        fail(&format!("{section}: completed sessions but zero tokens"));
    }
    if tokens > 0.0 && require_num(run, section, "tokens_per_s") <= 0.0 {
        fail(&format!("{section}.tokens_per_s must be positive"));
    }
    let healthy = require_num(run, section, "healthy_tokens");
    if healthy > tokens {
        fail(&format!(
            "{section}: healthy_tokens {healthy} exceeds tokens {tokens}"
        ));
    }
    if completed > 0.0 && healthy <= 0.0 {
        fail(&format!(
            "{section}: completed sessions but zero healthy tokens"
        ));
    }
    if healthy > 0.0 && require_num(run, section, "goodput_tokens_per_s") <= 0.0 {
        fail(&format!("{section}.goodput_tokens_per_s must be positive"));
    }
    for hist in ["per_token_ms", "ttft_ms"] {
        let h = match run.get(hist) {
            Some(h) if h.as_obj().is_some() => h,
            _ => fail(&format!("{section}.{hist} missing or not an object")),
        };
        let sec = format!("{section}.{hist}");
        let (p50, p95, p99) = (
            require_num(h, &sec, "p50"),
            require_num(h, &sec, "p95"),
            require_num(h, &sec, "p99"),
        );
        if !(p50 <= p95 && p95 <= p99) {
            fail(&format!(
                "{sec}: percentiles out of order ({p50}, {p95}, {p99})"
            ));
        }
        if tokens > 0.0 && require_num(h, &sec, "count") <= 0.0 {
            fail(&format!("{sec}.count must be positive"));
        }
        let (min, mean, max) = (
            require_num(h, &sec, "min"),
            require_num(h, &sec, "mean"),
            require_num(h, &sec, "max"),
        );
        if !(min <= mean && mean <= max) {
            fail(&format!(
                "{sec}: min {min} / mean {mean} / max {max} out of order"
            ));
        }
    }
    let batches = require_num(run, section, "batches");
    let mean_batch = require_num(run, section, "mean_batch");
    if tokens > 0.0 && (batches <= 0.0 || mean_batch <= 0.0) {
        fail(&format!(
            "{section}: generated tokens but batches {batches} / mean_batch {mean_batch} \
             not positive"
        ));
    }
    if run.get("stream_checksum").and_then(Json::as_hex).is_none() {
        fail(&format!(
            "{section}.stream_checksum missing or not a \"0x\"-prefixed 16-digit hex string"
        ));
    }
    completed
}

/// Validates the optional v5 `serve` section. With `require_serve`, every
/// variant's batched run must have completed a session.
fn check_serve_section(serve: &Json, require_serve: bool) {
    if require_num(serve, "serve", "sessions") <= 0.0 {
        fail("serve.sessions must be positive");
    }
    require_num(serve, "serve", "max_batch");
    require_num(serve, "serve", "trace_seed");
    // Chaos knobs: the writer zeroes all three when faults are off, so a
    // nonzero knob with faults_active == false is a torn document.
    let faults_active = match serve.get("faults_active") {
        Some(Json::Bool(b)) => *b,
        _ => fail("serve.faults_active missing or not a bool"),
    };
    for knob in ["deadline_steps", "shed_high_water", "max_admit_per_step"] {
        let v = require_num(serve, "serve", knob);
        if v < 0.0 {
            fail(&format!("serve.{knob} must be non-negative"));
        }
        if !faults_active && v != 0.0 {
            fail(&format!(
                "serve.{knob} is {v} but faults_active is false — chaos knobs must be \
                 zeroed when faults are off"
            ));
        }
    }
    let variants = match serve.get("variants").and_then(|v| v.as_arr()) {
        Some(v) if !v.is_empty() => v,
        _ => fail("serve.variants missing or empty"),
    };
    let mut factored = 0usize;
    for (i, v) in variants.iter().enumerate() {
        let section = format!("serve.variants[{i}]");
        let label = require_str(v, &section, "label");
        let reduction = require_num(v, &section, "reduction_pct");
        if reduction > 0.0 {
            factored += 1;
        }
        if require_num(v, &section, "speedup") <= 0.0 {
            fail(&format!("{section}.speedup must be positive"));
        }
        if !matches!(v.get("bit_identical"), Some(Json::Bool(true))) {
            fail(&format!(
                "{section} (\"{label}\"): batched streams are not bit-identical to sequential"
            ));
        }
        for run in ["batched", "sequential"] {
            let completed = match v.get(run) {
                Some(r) if r.as_obj().is_some() => check_serve_run(r, &format!("{section}.{run}")),
                _ => fail(&format!("{section}.{run} missing or not an object")),
            };
            if require_serve && run == "batched" && completed <= 0.0 {
                fail(&format!(
                    "{section} (\"{label}\"): no batched session completed, so the \
                     bit-identity verdict compares two empty streams (--require-serve)"
                ));
            }
        }
    }
    if !variants
        .iter()
        .any(|v| v.get("label").and_then(|l| l.as_str()) == Some("dense"))
    {
        fail("serve.variants must include the dense baseline");
    }
    if factored < 3 {
        fail(&format!(
            "serve.variants must cover at least 3 factored reduction points (found {factored})"
        ));
    }
    println!(
        "metrics_check: serve section OK ({} variants, {factored} factored points)",
        variants.len()
    );
}

/// Validates a merged journal (`--journal`): every line parses, no
/// duplicate `(figure, fingerprint)` keys, at least one record.
fn check_journal(path: &str) {
    use lrd_core::journal::JournalRecord;
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => fail(&format!("cannot read {path}: {e}")),
    };
    let mut seen = std::collections::HashSet::new();
    let mut figures = std::collections::BTreeSet::new();
    let mut records = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = match JournalRecord::parse_line(line) {
            Ok(r) => r,
            // A merged journal tolerates no torn/foreign lines: the merge
            // rewrote every record canonically.
            Err(e) => fail(&format!("{path} line {}: {e}", lineno + 1)),
        };
        if !seen.insert((record.figure.clone(), record.fingerprint)) {
            fail(&format!(
                "{path} line {}: duplicate key ({}, {:016x}) — a merged journal must be duplicate-free",
                lineno + 1,
                record.figure,
                record.fingerprint
            ));
        }
        figures.insert(record.figure);
        records += 1;
    }
    if records == 0 {
        fail(&format!("{path} holds no journal records"));
    }
    println!(
        "metrics_check: journal OK ({records} record(s), {} figure(s))",
        figures.len()
    );
}

/// Validates a `BENCH_suite.json` document against the v5 layout.
fn check_suite(path: &str, require_serve: bool) {
    let doc = load_doc(path);
    if require_str(&doc, "$", "schema") != lrd_bench::SUITE_SCHEMA_NAME {
        fail(&format!(
            "suite schema is not \"{}\"",
            lrd_bench::SUITE_SCHEMA_NAME
        ));
    }
    let version = require_num(&doc, "$", "schema_version");
    if version != lrd_bench::SUITE_SCHEMA_VERSION as f64 {
        fail(&format!(
            "suite schema_version {version} != supported {}",
            lrd_bench::SUITE_SCHEMA_VERSION
        ));
    }
    require_str(&doc, "$", "command");
    // Sub-millisecond commands legitimately round to 0.000, so only a
    // negative wall clock is malformed.
    if require_num(&doc, "$", "wall_s") < 0.0 {
        fail("suite wall_s must be non-negative");
    }
    for key in ["workers", "samples", "steps"] {
        require_num(&doc, "$", key);
    }
    let cache = require_obj(&doc, "cache");
    let hit_rate = require_num(cache, "cache", "hit_rate");
    if !(0.0..=1.0).contains(&hit_rate) {
        fail(&format!("suite cache.hit_rate {hit_rate} outside [0, 1]"));
    }
    require_str(&doc, "$", "kernel_backend");
    let dtype = require_str(&doc, "$", "kernel_dtype");
    if !["f32", "bf16", "f16"].contains(&dtype) {
        fail(&format!(
            "suite kernel_dtype {dtype:?} is not a known dtype"
        ));
    }
    // kernel_gflops: one group per dtype, every throughput positive.
    let gflops = require_obj(&doc, "kernel_gflops");
    let groups = gflops.as_obj().expect("require_obj returned an object");
    if groups.is_empty() {
        fail("suite kernel_gflops has no dtype groups");
    }
    let mut n_kernels = 0usize;
    for (dtype, group) in groups {
        if !["f32", "bf16", "f16"].contains(&dtype.as_str()) {
            fail(&format!(
                "suite kernel_gflops group {dtype:?} is not a known dtype"
            ));
        }
        let Some(kernels) = group.as_obj() else {
            fail(&format!("suite kernel_gflops.{dtype} is not an object"));
        };
        for (name, value) in kernels {
            match value.as_num() {
                Some(g) if g > 0.0 => n_kernels += 1,
                _ => fail(&format!(
                    "suite kernel_gflops.{dtype}.{name} must be a positive number"
                )),
            }
        }
    }
    // Every dtype group must time the fused factored pipeline.
    for dtype in ["f32", "bf16", "f16"] {
        let fused = gflops
            .get(dtype)
            .and_then(|g| g.as_obj())
            .map(|g| g.iter().any(|(name, _)| name.starts_with("factored_fused")));
        if fused != Some(true) {
            fail(&format!(
                "suite kernel_gflops.{dtype} missing a factored_fused entry"
            ));
        }
    }
    if require_num(&doc, "$", "gemm_bytes_packed") <= 0.0 {
        fail("suite gemm_bytes_packed must be nonzero");
    }
    // The serve section is optional (only `repro serve` writes it), but
    // validated whenever present; `--require-serve` makes absence fatal.
    match doc.get("serve") {
        Some(serve) if serve.as_obj().is_some() => check_serve_section(serve, require_serve),
        Some(_) => fail("suite serve section is not an object"),
        None if require_serve => fail("suite has no serve section (--require-serve)"),
        None => {}
    }
    println!(
        "metrics_check: suite OK ({} dtype groups, {n_kernels} kernel timings)",
        groups.len()
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut suite: Option<String> = None;
    let mut journal: Option<String> = None;
    let mut require_nonzero: Vec<String> = Vec::new();
    let mut require_serve = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--journal" => {
                i += 1;
                match argv.get(i) {
                    Some(p) => journal = Some(p.clone()),
                    None => {
                        eprintln!("--journal requires a path to a merged journal");
                        std::process::exit(2);
                    }
                }
            }
            "--require-nonzero" => {
                i += 1;
                let list = argv.get(i).map(String::as_str).unwrap_or_else(|| {
                    eprintln!("--require-nonzero requires a comma-separated counter list");
                    std::process::exit(2);
                });
                require_nonzero.extend(
                    list.split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from),
                );
            }
            "--suite" => {
                i += 1;
                match argv.get(i) {
                    Some(p) => suite = Some(p.clone()),
                    None => {
                        eprintln!("--suite requires a path to BENCH_suite.json");
                        std::process::exit(2);
                    }
                }
            }
            "--require-serve" => require_serve = true,
            p if path.is_none() && !p.starts_with('-') => path = Some(p.to_string()),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if require_serve && suite.is_none() {
        eprintln!("--require-serve is only meaningful with --suite");
        std::process::exit(2);
    }
    if let Some(suite_path) = &suite {
        check_suite(suite_path, require_serve);
    }
    if let Some(journal_path) = &journal {
        check_journal(journal_path);
    }
    let Some(path) = path else {
        if suite.is_some() || journal.is_some() {
            return; // suite-/journal-only invocation
        }
        eprintln!(
            "usage: metrics_check <metrics.json> [--require-nonzero c1,c2,...] \
             [--suite BENCH_suite.json] [--require-serve] [--journal merged.jsonl]"
        );
        std::process::exit(2);
    };
    for name in &require_nonzero {
        if !lrd_trace::counters::ALL.iter().any(|c| c.name() == name) {
            eprintln!("--require-nonzero names unknown counter {name:?}");
            std::process::exit(2);
        }
    }
    let doc = load_doc(&path);

    // Schema identity.
    if require_str(&doc, "$", "schema") != SCHEMA_NAME {
        fail(&format!("schema is not \"{SCHEMA_NAME}\""));
    }
    let version = require_num(&doc, "$", "schema_version");
    if version != SCHEMA_VERSION as f64 {
        fail(&format!(
            "schema_version {version} != supported {SCHEMA_VERSION}"
        ));
    }

    // Run section: all numbers finite, wall clock positive.
    let run = require_obj(&doc, "run");
    require_str(run, "run", "command");
    require_str(run, "run", "kernel_backend");
    let wall_s = require_num(run, "run", "wall_s");
    if wall_s <= 0.0 {
        fail("run.wall_s must be positive");
    }
    for key in ["workers", "samples", "steps", "kernel_gflops"] {
        require_num(run, "run", key);
    }

    // Cache section and its defining invariant.
    let cache = require_obj(&doc, "cache");
    let hits = require_num(cache, "cache", "hits");
    let misses = require_num(cache, "cache", "misses");
    let lookups = require_num(cache, "cache", "lookups");
    let hit_rate = require_num(cache, "cache", "hit_rate");
    require_num(cache, "cache", "distinct_factors");
    if hits + misses != lookups {
        fail(&format!(
            "cache invariant violated: hits {hits} + misses {misses} != lookups {lookups}"
        ));
    }
    if !(0.0..=1.0).contains(&hit_rate) {
        fail(&format!("cache.hit_rate {hit_rate} outside [0, 1]"));
    }

    // Every named counter must be present and finite.
    let counters = require_obj(&doc, "counters");
    for c in lrd_trace::counters::ALL {
        require_num(counters, "counters", c.name());
    }
    for name in &require_nonzero {
        if require_num(counters, "counters", name) <= 0.0 {
            fail(&format!(
                "counters.{name} must be nonzero (--require-nonzero)"
            ));
        }
    }

    // GEMM cells: finite calls/flops, known shape.
    let gemm = require_arr(&doc, "gemm");
    for (i, cell) in gemm.iter().enumerate() {
        let section = format!("gemm[{i}]");
        require_str(cell, &section, "variant");
        require_str(cell, &section, "backend");
        let dtype = require_str(cell, &section, "dtype");
        if !["f32", "bf16", "f16"].contains(&dtype) {
            fail(&format!("{section}.dtype {dtype:?} is not a known dtype"));
        }
        if require_num(cell, &section, "calls") <= 0.0 {
            fail(&format!("{section}.calls must be positive"));
        }
        require_num(cell, &section, "flops");
    }

    // Spans: finite timing fields that fit inside the run.
    let spans = require_arr(&doc, "spans");
    for (i, span) in spans.iter().enumerate() {
        let section = format!("spans[{i}]");
        require_str(span, &section, "name");
        require_str(span, &section, "label");
        require_num(span, &section, "id");
        // `parent` is null for roots, a span id otherwise.
        match span.get("parent") {
            Some(Json::Null) => {}
            Some(p) if p.as_num().is_some() => {}
            _ => fail(&format!("{section}.parent missing or not null/number")),
        }
        let start_us = require_num(span, &section, "start_us");
        let dur_us = require_num(span, &section, "dur_us");
        if start_us + dur_us > wall_s * 1.1e6 + 1e6 {
            fail(&format!("{section} extends past the run's wall clock"));
        }
    }

    // Events: every field after name/label must be a finite number.
    let events = require_arr(&doc, "events");
    for (i, event) in events.iter().enumerate() {
        let section = format!("events[{i}]");
        require_str(event, &section, "name");
        for (key, value) in event.as_obj().expect("events hold objects") {
            if key == "name" || key == "label" {
                continue;
            }
            if value.as_num().is_none() {
                fail(&format!("{section}.{key} is not a finite number"));
            }
        }
    }

    println!(
        "metrics_check: OK ({} counters, {} gemm cells, {} spans, {} events, wall {wall_s:.1}s)",
        lrd_trace::counters::ALL.len(),
        gemm.len(),
        spans.len(),
        events.len()
    );
}
