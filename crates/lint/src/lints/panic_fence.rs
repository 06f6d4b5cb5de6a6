//! `panic-fence`: panics reachable from executor jobs sit behind a
//! `catch_unwind` fence.
//!
//! DESIGN.md §10/§15: one panicking job must cost one point (or one
//! serving slot), never the sweep. The executor offers two launch paths —
//! `run_jobs` (bare) and `run_jobs_isolated` (per-job `catch_unwind`) —
//! and this lint polices the bare one: for every non-test `run_jobs(…)`
//! call site, the functions referenced *inside the call's argument list*
//! (the job closures) are roots of a call-graph walk. If the walk reaches
//! a panicking construct (`panic!`-family, `.unwrap()`, `.expect()`, or
//! an `assert!` family macro) without passing through a function that
//! contains its own `catch_unwind`, the launch site is a finding.
//!
//! One finding per launch site, citing the panic-site count and one
//! concrete call chain — per-site findings would flood (every `assert!`
//! in the tensor stack is reachable from a sweep job) without adding
//! information. Sites inside functions that themselves fence with
//! `catch_unwind` are skipped, as are panic sites excused by a reasoned
//! `no-panic` allow (the allow's proof of unreachability covers this
//! lint's weaker claim too). `debug_assert!` is ignored: release sweeps
//! compile it out.

use super::{emit, Lint};
use crate::callgraph::CallGraph;
use crate::source::SourceFile;
use crate::{Analysis, Finding, Workspace};

/// See module docs.
pub struct PanicFence;

/// Crates whose launch sites are policed: the runtime crates plus the
/// bench harness (its drivers launch the production sweeps).
const SCOPE: [&str; 8] = [
    "core", "tensor", "nn", "eval", "models", "hwsim", "serve", "bench",
];

const PANIC_MACROS: [&str; 7] = [
    "panic",
    "todo",
    "unimplemented",
    "unreachable",
    "assert",
    "assert_eq",
    "assert_ne",
];

impl Lint for PanicFence {
    fn name(&self) -> &'static str {
        "panic-fence"
    }

    fn summary(&self) -> &'static str {
        "panics reachable from run_jobs job closures are fenced by catch_unwind"
    }

    fn check(&self, ws: &Workspace, an: &Analysis, out: &mut Vec<Finding>) {
        // Precompute per-fn properties over the whole workspace.
        let n = an.syms.fns.len();
        let mut fenced = vec![false; n];
        let mut panic_sites: Vec<Vec<(usize, String)>> = vec![Vec::new(); n];
        for i in 0..n {
            let (file, f) = an.syms.fn_at(ws, i);
            let Some((start, end)) = f.body else { continue };
            let code = &file.items.code;
            if code
                .get(start..end.min(code.len()))
                .is_some_and(|body| body.iter().any(|t| t.is_ident("catch_unwind")))
            {
                fenced[i] = true;
            }
            panic_sites[i] = find_panic_sites(file, start, end);
        }

        for (fi, file) in ws.files.iter().enumerate() {
            let in_scope = file
                .crate_name
                .as_deref()
                .is_some_and(|c| SCOPE.contains(&c));
            if !in_scope || !file.is_crate_code() {
                continue;
            }
            let code = &file.items.code;
            for k in 0..code.len() {
                if !code[k].is_ident("run_jobs")
                    || !code.get(k + 1).is_some_and(|t| t.is_punct('('))
                    || file.is_test_line(code[k].line)
                {
                    continue;
                }
                // The enclosing fn; a site inside a fn that fences with
                // catch_unwind is already isolated.
                let encl = file
                    .items
                    .fn_containing(k)
                    .and_then(|ii| an.syms.index_of((fi, ii)));
                if let Some(e) = encl {
                    if fenced[e] {
                        continue;
                    }
                }
                // Roots: call refs inside the run_jobs(...) argument list.
                let arg_end = match_paren(code, k + 1);
                let Some(encl_ii) = file.items.fn_containing(k) else {
                    continue;
                };
                let roots: Vec<usize> = file.items.fns[encl_ii]
                    .calls
                    .iter()
                    .filter(|c| c.tok > k + 1 && c.tok < arg_end)
                    .flat_map(|c| {
                        an.syms
                            .resolve(ws, file, &file.items.fns[encl_ii].qual_name, c)
                    })
                    .collect();
                if roots.is_empty() {
                    continue;
                }
                let preds = an.graph.reach(&roots, |i| fenced[i]);
                let mut total = 0usize;
                let mut exemplar: Option<(usize, usize, String)> = None;
                for (i, sites) in panic_sites.iter().enumerate() {
                    if preds[i].is_none() || fenced[i] || sites.is_empty() {
                        continue;
                    }
                    total += sites.len();
                    if exemplar.is_none() {
                        let (line, what) = &sites[0];
                        exemplar = Some((i, *line, what.clone()));
                    }
                }
                let Some((target, line, what)) = exemplar else {
                    continue;
                };
                let chain = CallGraph::chain(&preds, target);
                let (tfile, _) = an.syms.fn_at(ws, target);
                emit(
                    file,
                    self.name(),
                    code[k].line,
                    format!(
                        "jobs launched by this bare `run_jobs` call can reach {total} \
                         unfenced panic site(s) — e.g. `{what}` at {}:{line} via \
                         `{}` — launch with `run_jobs_isolated` or fence the job body \
                         with `catch_unwind`",
                        tfile.rel,
                        CallGraph::render_chain(ws, &an.syms, &chain),
                    ),
                    out,
                );
            }
        }
    }
}

/// Panicking constructs in `file`'s code-token range `[start, end)`,
/// excluding test lines and lines excused by a `no-panic` or
/// `panic-fence` allow.
fn find_panic_sites(file: &SourceFile, start: usize, end: usize) -> Vec<(usize, String)> {
    let code = &file.items.code;
    let mut out = Vec::new();
    for i in start..end.min(code.len()) {
        let t = &code[i];
        let line = t.line;
        if file.is_test_line(line) || excused(file, line) {
            continue;
        }
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && i > 0
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            out.push((line, format!(".{}()", t.text)));
        }
        if PANIC_MACROS.iter().any(|m| t.is_ident(m))
            && code.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            out.push((line, format!("{}!", t.text)));
        }
    }
    out
}

/// Does a `no-panic` or `panic-fence` allow target this line? A
/// `panic-fence` directive is marked used; a `no-panic` one is read
/// without marking — `no-panic` owns its directive's accounting.
fn excused(file: &SourceFile, line: usize) -> bool {
    if file.suppressed("panic-fence", line) {
        return true;
    }
    file.suppressions
        .iter()
        .any(|s| s.lint == "no-panic" && s.target_line == line)
}

/// Index of the `)` matching the `(` at `code[open]` (or the stream's end).
fn match_paren(code: &[crate::lexer::Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < code.len() {
        if code[i].is_punct('(') {
            depth += 1;
        } else if code[i].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    code.len()
}
