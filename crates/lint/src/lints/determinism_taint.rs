//! `determinism-taint`: call-graph upgrade of the per-token `determinism`
//! lint — no entry point of a runtime crate may *reach* host-dependent
//! iteration order through any call chain.
//!
//! The token lint catches direct `Instant::now`/`SystemTime::now`/
//! `available_parallelism` reads; what it cannot see is order
//! nondeterminism that hides behind calls: a private helper iterating a
//! `HashMap` feeds host-randomized order into every public function above
//! it. This lint finds the *sources* —
//!
//! * iteration over a local/parameter declared `HashMap`/`HashSet`
//!   (`.iter()`, `.keys()`, `.values()`, `.drain()`, `.retain()`,
//!   `for … in &map`, including one `.lock()`/`.borrow()` hop);
//! * iteration over a struct field typed `HashMap`/`HashSet` anywhere in
//!   the workspace;
//! * any `RandomState` mention —
//!
//! and reports each source that is reachable from an *entry point* (a
//! `pub` fn of a runtime crate, or a bench/runtime binary's `main`),
//! citing one concrete chain. Functions in the `DETERMINISM_ALLOWLIST`
//! modules are barriers: the span/serve clocks may do what they like
//! internally, taint does not propagate out of them. Direct time reads
//! stay the token lint's job — reporting them twice would be noise, and
//! a reasoned `determinism` allow on a read is equally a proof of
//! value-neutrality for every caller.
//!
//! Lookups (`get`, `insert`, `contains_key`, `entry`) are *not* sources:
//! hash maps are deterministic as dictionaries, only their iteration
//! order is not.

use super::{emit, Lint};
use crate::callgraph::CallGraph;
use crate::lexer::{Token, TokenKind};
use crate::source::{FileKind, SourceFile};
use crate::{Analysis, Finding, Workspace, DETERMINISM_ALLOWLIST, RUNTIME_CRATES};

/// See module docs.
pub struct DeterminismTaint;

/// Methods whose call on a hash container observes iteration order.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

impl Lint for DeterminismTaint {
    fn name(&self) -> &'static str {
        "determinism-taint"
    }

    fn summary(&self) -> &'static str {
        "no entry point reaches HashMap/HashSet iteration or RandomState through any call chain"
    }

    fn check(&self, ws: &Workspace, an: &Analysis, out: &mut Vec<Finding>) {
        let n = an.syms.fns.len();
        // Entry points: pub fns in runtime-crate libs, plus `main` of
        // runtime/bench binaries (the sweeps' actual roots).
        let mut entries = Vec::new();
        let mut barrier = vec![false; n];
        for (i, is_barrier) in barrier.iter_mut().enumerate() {
            let (file, f) = an.syms.fn_at(ws, i);
            if DETERMINISM_ALLOWLIST.contains(&file.rel.as_str()) {
                *is_barrier = true;
            }
            let Some(crate_name) = file.crate_name.as_deref() else {
                continue;
            };
            let runtime = RUNTIME_CRATES.contains(&crate_name);
            let is_entry = match file.kind {
                FileKind::Lib => runtime && f.is_pub && !file.is_test_line(f.line),
                FileKind::Bin => (runtime || crate_name == "bench") && f.name == "main",
                _ => false,
            };
            if is_entry {
                entries.push(i);
            }
        }
        let preds = an.graph.reach(&entries, |i| barrier[i]);

        for i in 0..n {
            if preds[i].is_none() || barrier[i] {
                continue;
            }
            let (file, f) = an.syms.fn_at(ws, i);
            let Some((start, end)) = f.body else { continue };
            for (line, what) in find_sources(file, &an.syms.hash_fields, start, end) {
                let chain = CallGraph::chain(&preds, i);
                emit(
                    file,
                    self.name(),
                    line,
                    format!(
                        "{what} in `{}` — iteration order is host-randomized and this \
                         function is reachable from entry point `{}` (via `{}`); use a \
                         BTreeMap/BTreeSet, sort before iterating, or add a reasoned allow",
                        f.qual_name,
                        CallGraph::render_chain(ws, &an.syms, &chain[..1]),
                        CallGraph::render_chain(ws, &an.syms, &chain),
                    ),
                    out,
                );
            }
        }
    }
}

/// Order-observing operations in `[start, end)` of `file`'s code tokens.
fn find_sources(
    file: &SourceFile,
    hash_fields: &std::collections::BTreeSet<String>,
    start: usize,
    end: usize,
) -> Vec<(usize, String)> {
    let code = &file.items.code;
    let end = end.min(code.len());
    let hash_vars = collect_hash_vars(code, start, end);
    let mut out = Vec::new();
    for i in start..end {
        let t = &code[i];
        if t.kind != TokenKind::Ident || file.is_test_line(t.line) {
            continue;
        }
        if t.text == "RandomState" {
            out.push((t.line, "`RandomState` use".to_string()));
            continue;
        }
        // `<var>.iter()` / `<field>.iter()` with an optional
        // `.lock()`/`.borrow()` hop: look back from an iteration method.
        if ITER_METHODS.contains(&t.text.as_str())
            && i > 0
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            let mut j = i - 1; // the `.`
                               // Skip one `.lock()` / `.borrow()` hop.
            if j >= 4
                && code[j - 1].is_punct(')')
                && code[j - 2].is_punct('(')
                && (code[j - 3].is_ident("lock") || code[j - 3].is_ident("borrow"))
                && code[j - 4].is_punct('.')
            {
                j -= 4;
            }
            if j >= 1 {
                let recv = &code[j - 1];
                if recv.kind == TokenKind::Ident {
                    let is_field = j >= 2 && code[j - 2].is_punct('.');
                    let hit = if is_field {
                        hash_fields.contains(&recv.text)
                    } else {
                        hash_vars.contains(&recv.text)
                    };
                    if hit {
                        out.push((
                            t.line,
                            format!("`{}.{}()` on a HashMap/HashSet", recv.text, t.text),
                        ));
                    }
                }
            }
            continue;
        }
        // `for … in <expr mentioning a hash var or hash field>`.
        if t.is_ident("for") {
            let Some(in_idx) = (i + 1..end).find(|&k| code[k].is_ident("in")) else {
                continue;
            };
            let Some(body) = (in_idx + 1..end).find(|&k| code[k].is_punct('{')) else {
                continue;
            };
            for k in in_idx + 1..body {
                let e = &code[k];
                if e.kind != TokenKind::Ident {
                    continue;
                }
                let as_field = k >= 1 && code[k - 1].is_punct('.');
                // A method call on the hash var (`m.get(...)` inside a
                // range expr, say) is not the loop iterating the map
                // itself — but `for x in &m` / `for x in m` is.
                let followed_by_call = code.get(k + 1).is_some_and(|n| n.is_punct('('));
                if followed_by_call {
                    continue;
                }
                let hit = if as_field {
                    hash_fields.contains(&e.text)
                } else {
                    hash_vars.contains(&e.text)
                };
                if hit {
                    out.push((
                        e.line,
                        format!("`for … in` over HashMap/HashSet `{}`", e.text),
                    ));
                    break;
                }
            }
        }
    }
    out
}

/// Names bound to `HashMap`/`HashSet` in `[start, end)`: `let` bindings
/// whose declaration statement mentions the type, plus fn parameters
/// (scanning a little before `start` would catch the signature, so the
/// caller passes the body range and we additionally scan the enclosing
/// signature tokens just before the body).
fn collect_hash_vars(
    code: &[Token],
    start: usize,
    end: usize,
) -> std::collections::BTreeSet<String> {
    let mut vars = std::collections::BTreeSet::new();
    // Parameters: walk back from the body's `{` to the matching `fn`,
    // collecting `name: …HashMap…` pairs.
    let mut sig_start = start;
    while sig_start > 0 && !code[sig_start].is_ident("fn") {
        sig_start -= 1;
        if start - sig_start > 256 {
            break; // degenerate; give up on the signature
        }
    }
    collect_typed_names(code, sig_start, start, &mut vars);
    // `let [mut] name … = …;` statements mentioning HashMap/HashSet.
    let mut i = start;
    while i < end.min(code.len()) {
        if code[i].is_ident("let") {
            let mut j = i + 1;
            if code.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(name) = code.get(j).filter(|t| t.kind == TokenKind::Ident) else {
                i += 1;
                continue;
            };
            // Scan the statement to its `;` at depth 0.
            let mut depth = 0usize;
            let mut k = j + 1;
            let mut mentions_hash = false;
            while k < end.min(code.len()) {
                let t = &code[k];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth = depth.saturating_sub(1);
                } else if t.is_punct(';') && depth == 0 {
                    break;
                }
                if t.is_ident("HashMap") || t.is_ident("HashSet") {
                    mentions_hash = true;
                }
                k += 1;
            }
            if mentions_hash {
                vars.insert(name.text.clone());
            }
            i = k;
            continue;
        }
        i += 1;
    }
    vars
}

/// `name: …HashMap…` pairs in `[from, to)` (a fn signature).
fn collect_typed_names(
    code: &[Token],
    from: usize,
    to: usize,
    vars: &mut std::collections::BTreeSet<String>,
) {
    let mut i = from;
    while i < to.min(code.len()) {
        if code[i].kind == TokenKind::Ident
            && code.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !code.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            // Type tokens run to the `,` or `)` at depth 0.
            let mut depth = 0usize;
            let mut k = i + 2;
            while k < to.min(code.len()) {
                let t = &code[k];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct(']') || t.is_punct('>') {
                    depth = depth.saturating_sub(1);
                } else if t.is_punct(')') {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                } else if t.is_punct(',') && depth == 0 {
                    break;
                }
                if t.is_ident("HashMap") || t.is_ident("HashSet") {
                    vars.insert(code[i].text.clone());
                }
                k += 1;
            }
            i = k;
            continue;
        }
        i += 1;
    }
}
