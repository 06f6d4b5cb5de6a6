//! Whole-repo analyzer tests: the real workspace parses and lints clean,
//! and *injected* drift is caught — the regression the item-graph
//! analyzer exists to prevent.

use lrd_lint::source::SourceFile;
use lrd_lint::{run, Workspace};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

fn load() -> Workspace {
    Workspace::load(&repo_root()).expect("load workspace")
}

#[test]
fn self_lint_parses_and_passes_the_real_workspace() {
    let ws = load();
    // The analyzer must at least see its own crate: the parser handling
    // the whole repo (including this file) is the self-test.
    assert!(
        ws.file("crates/lint/src/parser.rs").is_some(),
        "workspace load missed the analyzer's own sources"
    );
    let parser = ws.file("crates/lint/src/parser.rs").expect("parser.rs");
    assert!(
        parser.items.fns.iter().any(|f| f.name == "parse_items"),
        "item parser failed to find its own entry point"
    );
    let report = run(&ws);
    assert!(
        report.clean(),
        "workspace must lint clean:\n{}",
        report
            .findings
            .iter()
            .map(lrd_lint::Finding::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn injected_dead_counter_is_named() {
    // Increment a counter the registry never declared: counter-hygiene-v2
    // must fail the run and name the counter at the incrementing site.
    let mut ws = load();
    ws.files.push(SourceFile::parse(
        PathBuf::from("crates/core/src/injected.rs"),
        "crates/core/src/injected.rs".to_string(),
        "pub fn bump() {\n    lrd_trace::counters::add(lrd_trace::Counter::TotallyNewCounter, 1);\n}\n",
    ));
    let report = run(&ws);
    let hit = report
        .findings
        .iter()
        .find(|f| f.lint == "counter-hygiene-v2" && f.message.contains("TotallyNewCounter"))
        .unwrap_or_else(|| panic!("injected increment of an undeclared counter was not caught"));
    assert_eq!(hit.file, "crates/core/src/injected.rs");
    assert_eq!(hit.line, 2);
}

#[test]
fn injected_undocumented_counter_is_named() {
    // The reverse drift: declare-and-increment without a DESIGN.md catalog
    // row. Simulated by dropping the row from the design text.
    let mut ws = load();
    let design = ws.design_md.take().expect("DESIGN.md present");
    let pruned: String = design
        .lines()
        .filter(|l| !l.contains("`svd_jacobi_calls`"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_ne!(design, pruned, "catalog row to prune not found");
    ws.design_md = Some(pruned);
    let report = run(&ws);
    assert!(
        report
            .findings
            .iter()
            .any(|f| { f.lint == "counter-hygiene-v2" && f.message.contains("svd_jacobi_calls") }),
        "undocumented counter was not caught"
    );
}
