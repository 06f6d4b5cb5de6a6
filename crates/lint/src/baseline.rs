//! Finding baselines: accepted findings by stable ID, so CI fails on
//! *new* findings only.
//!
//! A baseline is a committed JSON file (`lint-baseline.json` at the
//! workspace root) listing finding IDs the team has explicitly accepted.
//! IDs hash `(lint, file, normalized message)` — line numbers are
//! excluded and digits are masked, so unrelated edits that shift code or
//! change counts do not churn the baseline. The file is meant to ship
//! empty: it exists so a future *intentional* exception is an auditable
//! one-line diff, not so drift can be waved through wholesale (see
//! DESIGN.md §11).

use crate::{Finding, Report};
use std::collections::BTreeSet;

/// Schema identifier of the baseline file.
pub const BASELINE_SCHEMA: &str = "lrd-lint-baseline";

/// File name auto-loaded from the workspace root when no `--baseline` /
/// `--no-baseline` flag overrides it.
pub const DEFAULT_BASELINE: &str = "lint-baseline.json";

/// A parsed baseline: the set of accepted finding IDs.
#[derive(Debug, Default)]
pub struct Baseline {
    /// Accepted IDs (16 lowercase hex chars each).
    pub ids: BTreeSet<String>,
}

impl Baseline {
    /// Parses a baseline file.
    ///
    /// # Errors
    ///
    /// Rejects text that is not a `lrd-lint-baseline` v1 document or that
    /// contains malformed IDs — a truncated baseline must fail loudly, not
    /// silently accept nothing.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        if !compact.contains(&format!("\"schema\":\"{BASELINE_SCHEMA}\"")) {
            return Err(format!("missing `\"schema\": \"{BASELINE_SCHEMA}\"`"));
        }
        if !compact.contains("\"schema_version\":1") {
            return Err("missing or unsupported `schema_version` (expected 1)".into());
        }
        let mut ids = BTreeSet::new();
        let mut rest = compact.as_str();
        while let Some(pos) = rest.find("\"id\":\"") {
            let tail = &rest[pos + 6..];
            let Some(end) = tail.find('"') else {
                return Err("unterminated `id` string".into());
            };
            let id = &tail[..end];
            if id.len() != 16
                || !id
                    .bytes()
                    .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
            {
                return Err(format!(
                    "`{id}` is not a finding id (16 lowercase hex chars)"
                ));
            }
            ids.insert(id.to_string());
            rest = &tail[end..];
        }
        Ok(Baseline { ids })
    }

    /// Loads and parses the file at `path`.
    ///
    /// # Errors
    ///
    /// I/O errors and parse errors, with the path in the message.
    pub fn load(path: &std::path::Path) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Baseline::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Findings in `report` whose ID the baseline does not cover — the
    /// ones that should fail CI.
    pub fn new_findings<'r>(&self, report: &'r Report) -> Vec<&'r Finding> {
        report
            .findings
            .iter()
            .filter(|f| !self.ids.contains(&f.id))
            .collect()
    }

    /// Baseline IDs that no current finding carries — stale entries that
    /// should be pruned (reported, never fatal).
    pub fn stale_ids(&self, report: &Report) -> Vec<&str> {
        let live: BTreeSet<&str> = report.findings.iter().map(|f| f.id.as_str()).collect();
        self.ids
            .iter()
            .map(String::as_str)
            .filter(|id| !live.contains(id))
            .collect()
    }
}

/// Renders `report`'s findings as a baseline document (`--write-baseline`).
pub fn render(report: &Report) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"{BASELINE_SCHEMA}\",\n  \"schema_version\": 1,\n  \"findings\": ["
    );
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"id\": \"{}\", \"lint\": {}, \"file\": {}, \"message\": {}}}",
            f.id,
            crate::json_str(f.lint),
            crate::json_str(&f.file),
            crate::json_str(&f.message)
        ));
    }
    if !report.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(findings: Vec<Finding>) -> Report {
        Report {
            findings,
            files_checked: 1,
            lints: vec!["no-panic"],
        }
    }

    fn finding(msg: &str) -> Finding {
        Finding::new("no-panic", "crates/core/src/a.rs".into(), 3, msg.into())
    }

    #[test]
    fn roundtrip_and_diff() {
        let accepted = report_with(vec![finding("old sin")]);
        let base = Baseline::parse(&render(&accepted)).expect("parse rendered baseline");
        let now = report_with(vec![finding("old sin"), finding("new sin")]);
        let new: Vec<_> = base.new_findings(&now);
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].message, "new sin");
        assert!(base.stale_ids(&now).is_empty());
        let gone = report_with(vec![]);
        assert_eq!(base.stale_ids(&gone).len(), 1);
    }

    #[test]
    fn ids_are_line_and_digit_stable() {
        let a = Finding::new("no-panic", "f.rs".into(), 3, "reaches 4 panic sites".into());
        let b = Finding::new(
            "no-panic",
            "f.rs".into(),
            99,
            "reaches 7 panic sites".into(),
        );
        assert_eq!(a.id, b.id);
        let c = Finding::new("no-panic", "f.rs".into(), 3, "different message".into());
        assert_ne!(a.id, c.id);
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse("{\"schema\":\"lrd-lint-baseline\"}").is_err());
        let bad_id = "{\"schema\":\"lrd-lint-baseline\",\"schema_version\":1,\"findings\":[{\"id\":\"xyz\"}]}";
        assert!(Baseline::parse(bad_id).is_err());
    }

    #[test]
    fn empty_baseline_accepts_nothing() {
        let base = Baseline::parse(
            "{\"schema\": \"lrd-lint-baseline\", \"schema_version\": 1, \"findings\": []}",
        )
        .expect("parse");
        let now = report_with(vec![finding("sin")]);
        assert_eq!(base.new_findings(&now).len(), 1);
    }
}
