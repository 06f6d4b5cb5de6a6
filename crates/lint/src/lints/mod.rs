//! The lint registry.
//!
//! Each lint is a zero-state struct implementing [`Lint`]; `registry()`
//! returns them in execution order. Lints receive the shared [`Analysis`]
//! (symbol table + call graph) so cross-file reachability checks are
//! built once per run. To add a lint: create a module here, implement
//! [`Lint`], append it to [`registry`], add a known-bad and a known-good
//! fixture under `tests/fixtures/`, and document it in `DESIGN.md` §11.

mod counter_hygiene_v2;
mod determinism;
mod determinism_taint;
mod no_panic;
mod no_print;
mod safety_comment;
mod schema_const;
mod schema_field_parity;

use crate::source::SourceFile;
use crate::{Analysis, Finding, Workspace};

pub use counter_hygiene_v2::CounterHygieneV2;
pub use determinism::Determinism;
pub use determinism_taint::DeterminismTaint;
pub use no_panic::NoPanic;
pub use no_print::NoPrint;
pub use safety_comment::SafetyComment;
pub use schema_const::SchemaConst;
pub use schema_field_parity::SchemaFieldParity;

/// One workspace invariant.
pub trait Lint {
    /// Registry name, as used in suppression directives.
    fn name(&self) -> &'static str;
    /// One-line description for `--list` and the JSON report.
    fn summary(&self) -> &'static str;
    /// Appends unsuppressed findings for the whole workspace.
    fn check(&self, ws: &Workspace, an: &Analysis, out: &mut Vec<Finding>);
}

/// Every content lint, in execution order.
pub fn registry() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(NoPanic),
        Box::new(SafetyComment),
        Box::new(NoPrint),
        Box::new(CounterHygieneV2),
        Box::new(Determinism),
        Box::new(DeterminismTaint),
        Box::new(SchemaConst),
        Box::new(SchemaFieldParity),
    ]
}

/// Emits `finding` unless an `// lrd-lint: allow(…)` directive on the
/// finding's line covers it (marking the directive used).
pub(crate) fn emit(
    file: &SourceFile,
    lint: &'static str,
    line: usize,
    message: String,
    out: &mut Vec<Finding>,
) {
    if file.suppressed(lint, line) {
        return;
    }
    out.push(Finding::new(lint, file.rel.clone(), line, message));
}

/// Name of the bookkeeping pseudo-lint (not suppressible — suppressions
/// are audit records and must stay accountable).
pub const SUPPRESSION_HYGIENE: &str = "suppression-hygiene";

/// Reports malformed directives, directives naming unknown lints, and
/// directives that suppressed nothing. Runs after every content lint so
/// `used` flags are final.
pub fn suppression_hygiene(ws: &Workspace, known: &[&'static str], out: &mut Vec<Finding>) {
    for file in &ws.files {
        for bad in &file.malformed {
            out.push(Finding::new(
                SUPPRESSION_HYGIENE,
                file.rel.clone(),
                bad.line,
                format!("malformed suppression directive: {}", bad.problem),
            ));
        }
        for sup in &file.suppressions {
            if !known.contains(&sup.lint.as_str()) {
                out.push(Finding::new(
                    SUPPRESSION_HYGIENE,
                    file.rel.clone(),
                    sup.line,
                    format!(
                        "suppression names unknown lint `{}` (known: {})",
                        sup.lint,
                        known.join(", ")
                    ),
                ));
            } else if !sup.used.get() {
                out.push(Finding::new(
                    SUPPRESSION_HYGIENE,
                    file.rel.clone(),
                    sup.line,
                    format!(
                        "unused suppression for `{}` — the code it excused is gone; remove it",
                        sup.lint
                    ),
                ));
            }
        }
    }
}
