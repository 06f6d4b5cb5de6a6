//! Fixture self-tests: every known-bad fixture under `tests/fixtures/`
//! triggers *exactly* its lint, and every known-good fixture passes clean.
//!
//! Fixtures are loaded into in-memory workspaces at the paths their lint
//! polices (runtime-crate library code, the counter registry, the journal
//! module, …), so the on-disk fixture tree itself is excluded from real
//! lint runs.

use lrd_lint::{run, Workspace};
use std::path::Path;

/// Every lint with a fixture pair, by registry name.
const LINTS: [&str; 9] = [
    "no-panic",
    "safety-comment",
    "no-print",
    "counter-hygiene-v2",
    "determinism",
    "determinism-taint",
    "schema-const",
    "schema-field-parity",
    "suppression-hygiene",
];

fn fixture(lint: &str, file: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(lint.replace('-', "_"));
    std::fs::read_to_string(dir.join(file)).unwrap_or_else(|e| panic!("fixture {lint}/{file}: {e}"))
}

/// Where each fixture pretends to live, so path-sensitive lints apply.
fn rel_path(lint: &str) -> &'static str {
    match lint {
        "safety-comment" => "crates/tensor/src/fixture.rs",
        "counter-hygiene-v2" => "crates/trace/src/counters.rs",
        "schema-field-parity" => "crates/core/src/journal.rs",
        _ => "crates/core/src/fixture.rs",
    }
}

fn workspace_for(lint: &str, which: &str) -> Workspace {
    let mut files = vec![(
        rel_path(lint).to_string(),
        fixture(lint, &format!("{which}.rs")),
    )];
    let mut design = None;
    if lint == "counter-hygiene-v2" {
        design = Some(fixture(lint, &format!("design_{which}.md")));
        // The companion increment file: the good one keeps the counter
        // alive, the bad one increments a counter that was never declared.
        files.push((
            "crates/core/src/fixture.rs".to_string(),
            fixture(lint, &format!("{which}_use.rs")),
        ));
    }
    Workspace::from_memory(files, design)
}

fn render_all(findings: &[lrd_lint::Finding]) -> String {
    findings
        .iter()
        .map(lrd_lint::Finding::render)
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn bad_fixtures_trigger_exactly_their_lint() {
    for lint in LINTS {
        let report = run(&workspace_for(lint, "bad"));
        assert!(
            !report.findings.is_empty(),
            "{lint}: bad fixture produced no findings"
        );
        for f in &report.findings {
            assert_eq!(
                f.lint,
                lint,
                "{lint}: bad fixture fired a foreign lint:\n{}",
                render_all(&report.findings)
            );
        }
    }
}

#[test]
fn good_fixtures_pass_clean() {
    for lint in LINTS {
        let report = run(&workspace_for(lint, "good"));
        assert!(
            report.clean(),
            "{lint}: good fixture produced findings:\n{}",
            render_all(&report.findings)
        );
    }
}

#[test]
fn bad_fixtures_fail_a_cli_style_run() {
    // The CLI exits non-zero exactly when new findings exist; with no
    // baseline every finding is new, so this pins that every bad fixture
    // would fail `lrd-lint` in CI.
    for lint in LINTS {
        assert!(
            !run(&workspace_for(lint, "bad")).clean(),
            "{lint}: bad fixture reported clean"
        );
    }
}
