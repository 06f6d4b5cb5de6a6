//! CLI contract of sharded execution: strict `--shard i/n` validation
//! (exit 2 naming the flag and value), the `journal-merge` subcommand
//! (exit 0 on success, 1 on conflicting payloads, 2 on usage errors), and
//! `metrics_check --journal` validation of merged journals. Only cheap
//! paths run through the binaries — the full sharded fig9 bit-identity is
//! pinned in-process by `tests/shard_merge.rs` and end-to-end by the CI
//! `shard-merge` job with a release build.

use lrd_core::journal::{fingerprint, Journal, JournalRecord};
use lrd_core::space::DecompositionConfig;
use lrd_core::study::{DynBenchmark, StudyPoint};
use lrd_eval::harness::EvalOptions;
use lrd_eval::tasks::{ArcEasy, WinoGrande};
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn metrics_check() -> Command {
    Command::new(env!("CARGO_BIN_EXE_metrics_check"))
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lrd-shard-cli-{tag}-{}.jsonl", std::process::id()))
}

/// A small valid journal with one settled point per given label.
fn write_journal(tag: &str, labels: &[&str], reduction: f64) -> std::path::PathBuf {
    let benches: Vec<DynBenchmark> = vec![Box::new(ArcEasy), Box::new(WinoGrande)];
    let opts = EvalOptions {
        n_samples: 20,
        seed: 3,
        batch_size: 32,
        threads: 1,
    };
    let path = temp_path(tag);
    let _ = std::fs::remove_file(&path);
    let journal = Journal::create(&path).unwrap();
    for label in labels {
        let cfg = DecompositionConfig::uniform(&[0], &[0], 1);
        let point = StudyPoint {
            label: (*label).to_string(),
            rank: 1,
            layers: vec![0],
            tensors: vec![0],
            param_reduction_pct: reduction,
            results: vec![(
                "ARC Easy",
                lrd_eval::Accuracy {
                    correct: 3,
                    total: 5,
                },
            )],
            error: None,
            retries: 0,
        };
        let key = fingerprint(label, &cfg, &benches, &opts);
        journal
            .append(JournalRecord::from_point("fig7", key, &point))
            .unwrap();
    }
    path
}

#[test]
fn invalid_shard_specs_exit_2_naming_flag_and_value() {
    for bad in ["3/3", "0/0", "x/3", "1/y", "13", "-1/3", "1/3/5"] {
        let out = repro()
            .args(["fig9", "--fast", "--shard", bad])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "--shard {bad:?} must exit 2, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--shard") && stderr.contains(bad),
            "stderr must name the flag and value, got: {stderr}"
        );
    }
}

#[test]
fn out_of_range_deadlines_exit_2_naming_flag_and_value() {
    for bad in ["1e300", "1e20", "0", "-1", "inf", "NaN"] {
        let out = repro()
            .args(["table2", "--deadline-s", bad])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "--deadline-s {bad:?} must exit 2, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--deadline-s") && stderr.contains(bad),
            "stderr must name the flag and value, got: {stderr}"
        );
    }
}

#[test]
fn shard_on_a_non_figure_command_exits_2() {
    for cmd in [
        "optimize",
        "recovery",
        "baselines",
        "all",
        "serve",
        "table1",
    ] {
        let out = repro().args([cmd, "--shard", "0/3"]).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{cmd} --shard must exit 2, got {:?}",
            out.status
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--shard"),
            "stderr must explain the restriction"
        );
    }
}

#[test]
fn journal_merge_requires_out_and_at_least_one_input() {
    for args in [
        vec!["journal-merge"],
        vec!["journal-merge", "only-out.jsonl"],
    ] {
        let out = repro().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(String::from_utf8_lossy(&out.stderr).contains("journal-merge"));
    }
}

#[test]
fn journal_merge_combines_shards_and_metrics_check_validates() {
    let a = write_journal("ok-a", &["alpha"], 1.5);
    let b = write_journal("ok-b", &["beta", "gamma"], 2.5);
    let merged = temp_path("ok-merged");
    let _ = std::fs::remove_file(&merged);

    let out = repro()
        .arg("journal-merge")
        .arg(&merged)
        .arg(&a)
        .arg(&b)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "merge must succeed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let resumed = Journal::resume(&merged).unwrap();
    assert_eq!(resumed.len(), 3);
    assert_eq!(resumed.dropped_lines(), 0, "merged output is canonical");

    let check = metrics_check()
        .arg("--journal")
        .arg(&merged)
        .output()
        .unwrap();
    assert_eq!(
        check.status.code(),
        Some(0),
        "metrics_check --journal must pass: {}",
        String::from_utf8_lossy(&check.stderr)
    );
    assert!(String::from_utf8_lossy(&check.stdout).contains("journal OK"));

    for p in [a, b, merged] {
        let _ = std::fs::remove_file(&p);
    }
}

#[test]
fn journal_merge_conflict_exits_1() {
    // Same label → same fingerprint, but different payloads.
    let a = write_journal("conflict-a", &["alpha"], 1.5);
    let b = write_journal("conflict-b", &["alpha"], 9.5);
    let merged = temp_path("conflict-merged");
    let _ = std::fs::remove_file(&merged);

    let out = repro()
        .arg("journal-merge")
        .arg(&merged)
        .arg(&a)
        .arg(&b)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "conflict must exit 1");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("conflicting payloads"),
        "stderr must describe the conflict"
    );
    assert!(!merged.exists(), "no output on conflict");

    for p in [a, b] {
        let _ = std::fs::remove_file(&p);
    }
}

#[test]
fn journal_merge_missing_input_exits_1() {
    let a = write_journal("missing-a", &["alpha"], 1.5);
    let ghost = temp_path("missing-ghost");
    let _ = std::fs::remove_file(&ghost);
    let merged = temp_path("missing-merged");

    let out = repro()
        .arg("journal-merge")
        .arg(&merged)
        .arg(&a)
        .arg(&ghost)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "a shard that never ran must fail the merge"
    );
    let _ = std::fs::remove_file(&a);
}

#[test]
fn metrics_check_rejects_duplicate_and_torn_journals() {
    let a = write_journal("dup-a", &["alpha"], 1.5);
    let line = std::fs::read_to_string(&a).unwrap();
    let dup = temp_path("dup");
    std::fs::write(&dup, format!("{line}{line}")).unwrap();
    let out = metrics_check().arg("--journal").arg(&dup).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "duplicate key must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("duplicate key"));

    let torn = temp_path("torn");
    std::fs::write(&torn, &line[..line.len() / 2]).unwrap();
    let out = metrics_check()
        .arg("--journal")
        .arg(&torn)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "torn line must fail");

    let empty = temp_path("empty");
    std::fs::write(&empty, "").unwrap();
    let out = metrics_check()
        .arg("--journal")
        .arg(&empty)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "empty journal must fail");

    for p in [a, dup, torn, empty] {
        let _ = std::fs::remove_file(&p);
    }
}
