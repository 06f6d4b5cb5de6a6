//! `lrd-lint` — workspace invariant checker for the LRD repo.
//!
//! A dependency-free static analyzer. The substrate is layered: a
//! hand-rolled lexer ([`lexer`]), an item-level parser recovering fns /
//! structs / enums / consts with bodies kept as token streams
//! ([`parser`]), a workspace symbol table with crate-dependency pruning
//! ([`symbols`]), and a barrier-aware call-graph reachability pass
//! ([`callgraph`]). On top of that it enforces project-specific
//! invariants rustc and clippy cannot see — panic-safety of the sweep
//! runtime, determinism of the fault/journal layer, telemetry and schema
//! hygiene — on every commit:
//!
//! | lint | invariant |
//! |------|-----------|
//! | `no-panic` | no `.unwrap()`/`.expect()`/`panic!` in non-test runtime-crate code |
//! | `safety-comment` | every `unsafe` carries an adjacent `// SAFETY:` / `# Safety` note |
//! | `no-print` | library crates never print; output routes through `lrd-trace` |
//! | `counter-hygiene-v2` | counters declared ⇔ reported ⇔ incremented ⇔ documented, bidirectionally |
//! | `determinism` | no ambient time/parallelism reads outside approved modules |
//! | `determinism-taint` | no entry point reaches `HashMap`/`HashSet` iteration or `RandomState` through any call chain |
//! | `schema-const` | schema strings are single-sourced `const`s, never re-typed |
//! | `schema-field-parity` | every JSON field a writer emits is validated by `metrics_check`; versions are const-sourced |
//! | `suppression-hygiene` | every suppression is well-formed, known, and used |
//!
//! Findings carry stable IDs (`FNV-1a` over lint + file + digit-masked
//! message) and can be baselined via a committed `lint-baseline.json`
//! ([`baseline`]) so CI fails on *new* findings only. Findings are
//! suppressed *explicitly and auditably* with
//! `// lrd-lint: allow(<lint>, "<reason>")` — the reason is mandatory and
//! unused directives are themselves findings. See `DESIGN.md` §11.

pub mod baseline;
pub mod callgraph;
pub mod lexer;
pub mod lints;
pub mod parser;
pub mod source;
pub mod symbols;

use callgraph::CallGraph;
use source::SourceFile;
use std::path::{Path, PathBuf};
use symbols::SymbolTable;

/// Crates whose non-test code must be panic-free (`no-panic`): everything
/// a production sweep or serving run executes. `trace` is the telemetry
/// substrate and `bench` is the CLI harness; both are exempt from
/// `no-panic` but still covered by the other lints.
pub const RUNTIME_CRATES: [&str; 7] = ["core", "tensor", "nn", "eval", "models", "hwsim", "serve"];

/// Modules allowed to read ambient time or parallelism (`determinism`).
/// Everything else must either be deterministic or carry an inline allow.
pub const DETERMINISM_ALLOWLIST: [&str; 2] = [
    // The span clock: all timing flows through this one module, whose
    // output is telemetry-only and never feeds results.
    "crates/trace/src/span.rs",
    // The serving stopwatch: latency histograms only; admission, batch
    // packing and token selection are pure functions of the trace.
    "crates/serve/src/clock.rs",
];

/// Schema identifier strings that must be single-sourced (`schema-const`).
pub const SCHEMA_STRINGS: [&str; 3] = ["lrd-metrics", "lrd-journal", "lrd-bench-suite"];

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Registry name of the lint that fired.
    pub lint: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// Stable ID: FNV-1a over `(lint, file, digit-masked message)`. Line
    /// numbers and counts are excluded so the ID survives unrelated edits;
    /// this is what baselines key on.
    pub id: String,
}

impl Finding {
    /// Builds a finding, deriving its stable [`Finding::id`].
    pub fn new(lint: &'static str, file: String, line: usize, message: String) -> Finding {
        let id = stable_id(lint, &file, &message);
        Finding {
            lint,
            file,
            line,
            message,
            id,
        }
    }

    /// `path:line: [lint] message` — the human diagnostic format.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// FNV-1a over the identity of a finding, with every ASCII digit masked to
/// `#` so messages citing lines, counts, or chain positions hash the same
/// after unrelated code motion.
fn stable_id(lint: &str, file: &str, message: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            let b = if b.is_ascii_digit() { b'#' } else { b };
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(lint.as_bytes());
    mix(&[0]);
    mix(file.as_bytes());
    mix(&[0]);
    mix(message.as_bytes());
    format!("{h:016x}")
}

/// The loaded workspace a lint run operates on.
#[derive(Debug)]
pub struct Workspace {
    /// Workspace root directory.
    pub root: PathBuf,
    /// Every lexed source file, sorted by relative path.
    pub files: Vec<SourceFile>,
    /// `DESIGN.md` contents when present (the counter catalog lives there).
    pub design_md: Option<String>,
}

impl Workspace {
    /// Loads every `.rs` file under `crates/`, `tests/` and `examples/` of
    /// `root`. `vendor/` (third-party shims) and the lint crate's own
    /// known-bad fixtures are excluded.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than the roots simply missing.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut rels = Vec::new();
        for top in ["crates", "tests", "examples"] {
            collect_rs(root, &root.join(top), &mut rels)?;
        }
        rels.sort();
        rels.retain(|r| !r.starts_with("crates/lint/tests/fixtures/"));
        let mut files = Vec::with_capacity(rels.len());
        for rel in rels {
            let path = root.join(&rel);
            let text = std::fs::read_to_string(&path)?;
            files.push(SourceFile::parse(path, rel, &text));
        }
        let design_md = std::fs::read_to_string(root.join("DESIGN.md")).ok();
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
            design_md,
        })
    }

    /// Builds a workspace from in-memory `(relative path, text)` pairs —
    /// the fixture-test entry point.
    pub fn from_memory(files: Vec<(String, String)>, design_md: Option<String>) -> Workspace {
        Workspace {
            root: PathBuf::new(),
            files: files
                .into_iter()
                .map(|(rel, text)| SourceFile::parse(PathBuf::from(&rel), rel, &text))
                .collect(),
            design_md,
        }
    }

    /// The file at exactly this relative path, if loaded.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Result of a full lint run.
#[derive(Debug)]
pub struct Report {
    /// Unsuppressed findings, in registry-then-file order.
    pub findings: Vec<Finding>,
    /// Number of files analyzed.
    pub files_checked: usize,
    /// Names of every registered lint, in execution order.
    pub lints: Vec<&'static str>,
}

impl Report {
    /// True when nothing fired.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Machine-readable report for CI (`--json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"lrd-lint\",\"schema_version\":1,");
        out.push_str(&format!(
            "\"files_checked\":{},\"clean\":{},\"lints\":[",
            self.files_checked,
            self.clean()
        ));
        for (i, l) in self.lints.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(l));
        }
        out.push_str("],\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"lint\":{},\"file\":{},\"line\":{},\"message\":{}}}",
                json_str(&f.id),
                json_str(f.lint),
                json_str(&f.file),
                f.line,
                json_str(&f.message)
            ));
        }
        out.push_str("]}");
        out
    }
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Shared cross-file analysis, built once per run: the symbol table and
/// the call graph every reachability lint walks.
#[derive(Debug)]
pub struct Analysis {
    /// Workspace symbol table.
    pub syms: SymbolTable,
    /// Call graph over `syms.fns`.
    pub graph: CallGraph,
}

impl Analysis {
    /// Builds the symbol table and call graph for `ws`.
    pub fn build(ws: &Workspace) -> Analysis {
        let syms = SymbolTable::build(ws);
        let graph = CallGraph::build(ws, &syms);
        Analysis { syms, graph }
    }
}

/// Runs every registered lint over `ws`.
pub fn run(ws: &Workspace) -> Report {
    let analysis = Analysis::build(ws);
    let registry = lints::registry();
    let names: Vec<&'static str> = registry.iter().map(|l| l.name()).collect();
    let mut findings = Vec::new();
    for lint in &registry {
        lint.check(ws, &analysis, &mut findings);
    }
    // Suppression bookkeeping runs after every content lint has had the
    // chance to mark its directives used.
    lints::suppression_hygiene(ws, &names, &mut findings);
    Report {
        findings,
        files_checked: ws.files.len(),
        lints: names
            .into_iter()
            .chain(std::iter::once(lints::SUPPRESSION_HYGIENE))
            .collect(),
    }
}
