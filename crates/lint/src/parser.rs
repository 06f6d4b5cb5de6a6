//! Item-level parser on top of the lexer: just enough structure for
//! cross-file analysis.
//!
//! The lexer gives a flat token stream; this module recovers the *items*
//! — `fn` (free, impl, and trait methods), `struct`, `enum`, `const` /
//! `static`, and `use` declarations — while deliberately keeping function
//! bodies as token ranges. A body is never interpreted beyond extracting
//! its **call references** (`name(…)`, `Qualifier::name(…)`, `.name(…)`),
//! which is exactly what the symbol table and call graph need. Macro
//! bodies, generics, and expression structure stay opaque: the analyses
//! built on this are conservative reachability checks, not type checking.
//!
//! Parsing never fails — unparsable stretches are skipped token by token,
//! which degrades analysis coverage but never a lint run (the self-lint
//! test in `tests/fixtures.rs` pins that the analyzer digests its own
//! crate).

use crate::lexer::{Token, TokenKind};

/// One call reference extracted from a function body.
#[derive(Debug, Clone)]
pub struct CallRef {
    /// Called name (`simulate_inference`, `unwrap`, …).
    pub name: String,
    /// `Foo` in `Foo::name(…)`; `Self` is resolved by the symbol table.
    pub qualifier: Option<String>,
    /// 1-based source line of the call.
    pub line: usize,
    /// True for `.name(…)` method-call syntax.
    pub method: bool,
    /// Index of the name token in the file's *code* token vector.
    pub tok: usize,
}

/// One `fn` item. Bodies are token ranges into [`ParsedFile::code`], not
/// expression trees.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare name (`eval_point`).
    pub name: String,
    /// `Type::name` for impl/trait methods, else the bare name.
    pub qual_name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Declared `pub` (any visibility restriction counts).
    pub is_pub: bool,
    /// `[start, end)` code-token range of the body, braces included.
    /// `None` for bodyless declarations (trait signatures, `extern`).
    pub body: Option<(usize, usize)>,
    /// Call references found in the body.
    pub calls: Vec<CallRef>,
}

/// One `const`/`static` item with its initializer's token range.
#[derive(Debug, Clone)]
pub struct ConstItem {
    /// Item name (`SCHEMA_VERSION`).
    pub name: String,
    /// 1-based declaration line.
    pub line: usize,
    /// `[start, end)` code-token range of the initializer expression.
    pub value: (usize, usize),
}

/// One named struct field, with the only type property the analyses need.
#[derive(Debug, Clone)]
pub struct StructField {
    /// Field name.
    pub name: String,
    /// Type mentions `HashMap` or `HashSet` (directly or wrapped).
    pub is_hash: bool,
}

/// One `struct` item (named-field structs only; tuple/unit structs carry
/// no information the analyses use).
#[derive(Debug, Clone)]
pub struct StructItem {
    /// Struct name.
    pub name: String,
    /// 1-based declaration line.
    pub line: usize,
    /// Named fields, in declaration order.
    pub fields: Vec<StructField>,
}

/// One `enum` item with its variant names.
#[derive(Debug, Clone)]
pub struct EnumItem {
    /// Enum name.
    pub name: String,
    /// 1-based declaration line.
    pub line: usize,
    /// `(variant, line)` pairs.
    pub variants: Vec<(String, usize)>,
}

/// One `use` declaration, kept as its path segments (`a::b::{c, d}` is
/// flattened to every identifier mentioned).
#[derive(Debug, Clone)]
pub struct UseItem {
    /// Every identifier in the use tree, in source order.
    pub segments: Vec<String>,
    /// 1-based declaration line.
    pub line: usize,
}

/// The parsed view of one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Comment-free token stream all item ranges index into.
    pub code: Vec<Token>,
    /// Functions, in source order (nested `fn`s fold into their parent).
    pub fns: Vec<FnItem>,
    /// `const` and `static` items.
    pub consts: Vec<ConstItem>,
    /// Named-field structs.
    pub structs: Vec<StructItem>,
    /// Enums.
    pub enums: Vec<EnumItem>,
    /// Use declarations.
    pub uses: Vec<UseItem>,
}

impl ParsedFile {
    /// The function whose body contains code-token index `tok`, if any.
    pub fn fn_containing(&self, tok: usize) -> Option<usize> {
        self.fns
            .iter()
            .position(|f| f.body.is_some_and(|(s, e)| tok >= s && tok < e))
    }
}

/// Keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "for", "match", "return", "loop", "in", "move", "fn", "as", "let", "else",
];

/// Parses the item structure out of a lexed token stream.
pub fn parse_items(tokens: &[Token]) -> ParsedFile {
    let code: Vec<Token> = tokens.iter().filter(|t| !t.is_comment()).cloned().collect();
    let mut out = ParsedFile {
        code,
        ..ParsedFile::default()
    };
    let code = &out.code;
    // `(type name, brace depth its block opened at)` for impl/trait blocks.
    let mut type_stack: Vec<(String, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < code.len() {
        let t = &code[i];
        if t.is_punct('{') {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            while type_stack.last().is_some_and(|(_, d)| *d > depth) {
                type_stack.pop();
            }
            i += 1;
            continue;
        }
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            // `fn name` — an item; `fn(` is a fn-pointer type and skipped.
            "fn" if code.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident) => {
                let (item, next) = parse_fn(code, i, type_stack.last().map(|(n, _)| n.as_str()));
                out.fns.push(item);
                i = next;
                // `parse_fn` consumes the whole body without touching
                // `depth`, so the brace bookkeeping stays consistent.
            }
            "impl" | "trait" => {
                if let Some((name, open)) = subject_type(code, i) {
                    type_stack.push((name, depth + 1));
                    depth += 1;
                    i = open + 1;
                } else {
                    i += 1;
                }
            }
            "const" | "static" => {
                if let Some((item, next)) = parse_const(code, i) {
                    out.consts.push(item);
                    i = next;
                } else {
                    i += 1;
                }
            }
            "struct" => {
                if let Some((item, next)) = parse_struct(code, i) {
                    out.structs.push(item);
                    i = next;
                } else {
                    i += 1;
                }
            }
            "enum" => {
                if let Some((item, next)) = parse_enum(code, i) {
                    out.enums.push(item);
                    i = next;
                } else {
                    i += 1;
                }
            }
            "use" => {
                let mut segments = Vec::new();
                let line = t.line;
                let mut j = i + 1;
                while j < code.len() && !code[j].is_punct(';') {
                    if code[j].kind == TokenKind::Ident {
                        segments.push(code[j].text.clone());
                    }
                    j += 1;
                }
                out.uses.push(UseItem { segments, line });
                i = j + 1;
            }
            _ => i += 1,
        }
    }
    out
}

/// Parses the `fn` at `code[i]`; returns the item and the index just past
/// it (past the closing `}` of the body, or past the `;` of a bodyless
/// declaration).
fn parse_fn(code: &[Token], i: usize, impl_type: Option<&str>) -> (FnItem, usize) {
    let name = code[i + 1].text.clone();
    let qual_name = match impl_type {
        Some(t) => format!("{t}::{name}"),
        None => name.clone(),
    };
    let is_pub = {
        // Scan back over visibility/qualifier tokens to the `pub`, if any.
        let mut j = i;
        let mut saw = false;
        while j > 0 {
            j -= 1;
            let p = &code[j];
            let vis_part = p.is_ident("pub")
                || p.is_ident("crate")
                || p.is_ident("super")
                || p.is_ident("self")
                || p.is_ident("in")
                || p.is_ident("const")
                || p.is_ident("unsafe")
                || p.is_ident("async")
                || p.is_ident("extern")
                || p.kind == TokenKind::Str
                || p.is_punct('(')
                || p.is_punct(')');
            if p.is_ident("pub") {
                saw = true;
            }
            if !vis_part {
                break;
            }
        }
        saw
    };
    // Find the body `{` (or a `;` for declarations) at paren depth 0.
    let mut j = i + 2;
    let mut paren = 0usize;
    let body_open = loop {
        match code.get(j) {
            None => break None,
            Some(t) if t.is_punct('(') || t.is_punct('[') => paren += 1,
            Some(t) if t.is_punct(')') || t.is_punct(']') => paren = paren.saturating_sub(1),
            Some(t) if paren == 0 && t.is_punct('{') => break Some(j),
            Some(t) if paren == 0 && t.is_punct(';') => break None,
            _ => {}
        }
        j += 1;
    };
    let mut item = FnItem {
        name,
        qual_name,
        line: code[i].line,
        is_pub,
        body: None,
        calls: Vec::new(),
    };
    let Some(open) = body_open else {
        return (item, j + 1);
    };
    // Match braces to the body's end.
    let mut depth = 0usize;
    let mut k = open;
    while k < code.len() {
        if code[k].is_punct('{') {
            depth += 1;
        } else if code[k].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                k += 1;
                break;
            }
        }
        k += 1;
    }
    item.body = Some((open, k));
    item.calls = extract_calls(code, open, k);
    (item, k)
}

/// Call references in `code[start..end]`.
fn extract_calls(code: &[Token], start: usize, end: usize) -> Vec<CallRef> {
    let mut out = Vec::new();
    for idx in start..end.min(code.len()) {
        let t = &code[idx];
        if t.kind != TokenKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        if !code.get(idx + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let method = idx > 0 && code[idx - 1].is_punct('.');
        let qualifier = if !method
            && idx >= 3
            && code[idx - 1].is_punct(':')
            && code[idx - 2].is_punct(':')
            && code[idx - 3].kind == TokenKind::Ident
        {
            Some(code[idx - 3].text.clone())
        } else {
            None
        };
        out.push(CallRef {
            name: t.text.clone(),
            qualifier,
            line: t.line,
            method,
            tok: idx,
        });
    }
    out
}

/// For `impl Type`, `impl Trait for Type`, or `trait Name` at `code[i]`:
/// the subject type name and the index of the opening `{`.
fn subject_type(code: &[Token], i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    let mut angle = 0usize;
    let mut after_for: Option<String> = None;
    let mut first: Option<String> = None;
    let mut saw_for = false;
    while j < code.len() {
        let t = &code[j];
        if t.is_punct('{') && angle == 0 {
            let name = after_for.or(first)?;
            return Some((name, j));
        }
        if t.is_punct(';') && angle == 0 {
            return None; // `trait X: Y;` style declarations
        }
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = angle.saturating_sub(1);
        } else if t.is_ident("for") && angle == 0 {
            saw_for = true;
        } else if t.kind == TokenKind::Ident && angle == 0 {
            if saw_for && after_for.is_none() {
                after_for = Some(t.text.clone());
            } else if first.is_none() && !t.is_ident("where") {
                first = Some(t.text.clone());
            }
        }
        j += 1;
    }
    None
}

/// Parses `const NAME: T = expr;` / `static NAME: T = expr;` at `code[i]`.
/// Associated-const bounds (`const N: usize` in generics) have no `=` and
/// are skipped.
fn parse_const(code: &[Token], i: usize) -> Option<(ConstItem, usize)> {
    let name = code.get(i + 1)?;
    if name.kind != TokenKind::Ident || name.is_ident("fn") {
        return None; // `const fn` is handled by the `fn` arm
    }
    let mut j = i + 2;
    let mut depth = 0usize;
    let mut eq = None;
    while j < code.len() {
        let t = &code[j];
        if t.is_punct('{') && depth == 0 && eq.is_none() {
            // An item body before any `=`: this was a generic-parameter
            // bound (`<const N: usize>`), not a const item.
            return None;
        }
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') || t.is_punct('>') {
            depth = depth.saturating_sub(1);
        } else if t.is_punct('=') && depth == 0 && eq.is_none() {
            eq = Some(j);
        } else if t.is_punct(';') && depth == 0 {
            let eq = eq?;
            return Some((
                ConstItem {
                    name: name.text.clone(),
                    line: code[i].line,
                    value: (eq + 1, j),
                },
                j + 1,
            ));
        }
        j += 1;
    }
    None
}

/// Parses `struct Name { field: Type, … }` at `code[i]`; tuple and unit
/// structs return `None` (nothing to record).
fn parse_struct(code: &[Token], i: usize) -> Option<(StructItem, usize)> {
    let name = code.get(i + 1)?;
    if name.kind != TokenKind::Ident {
        return None;
    }
    // Find `{` before any `;` or `(` at angle depth 0.
    let mut j = i + 2;
    let mut angle = 0usize;
    let open = loop {
        let t = code.get(j)?;
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = angle.saturating_sub(1);
        } else if angle == 0 {
            if t.is_punct('{') {
                break j;
            }
            if t.is_punct(';') || t.is_punct('(') {
                return None;
            }
        }
        j += 1;
    };
    let mut fields = Vec::new();
    let mut depth = 1usize;
    let mut k = open + 1;
    while k < code.len() && depth > 0 {
        let t = &code[k];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
        } else if depth == 1
            && t.kind == TokenKind::Ident
            && code.get(k + 1).is_some_and(|n| n.is_punct(':'))
            && !code.get(k + 2).is_some_and(|n| n.is_punct(':'))
            && (code[k - 1].is_punct('{') || code[k - 1].is_punct(',') || code[k - 1].is_punct(']'))
        {
            // Type tokens run to the `,` or `}` at this depth.
            let mut m = k + 2;
            let mut td = 0usize;
            let mut is_hash = false;
            while m < code.len() {
                let tt = &code[m];
                if tt.is_punct('(') || tt.is_punct('[') || tt.is_punct('<') {
                    td += 1;
                } else if tt.is_punct(')') || tt.is_punct(']') || tt.is_punct('>') {
                    td = td.saturating_sub(1);
                } else if td == 0 && (tt.is_punct(',') || tt.is_punct('}')) {
                    break;
                }
                if tt.is_ident("HashMap") || tt.is_ident("HashSet") {
                    is_hash = true;
                }
                m += 1;
            }
            fields.push(StructField {
                name: t.text.clone(),
                is_hash,
            });
            k = m;
            continue;
        }
        k += 1;
    }
    Some((
        StructItem {
            name: name.text.clone(),
            line: code[i].line,
            fields,
        },
        k,
    ))
}

/// Parses `enum Name { Variant, … }` at `code[i]`.
fn parse_enum(code: &[Token], i: usize) -> Option<(EnumItem, usize)> {
    let name = code.get(i + 1)?;
    if name.kind != TokenKind::Ident {
        return None;
    }
    let mut j = i + 2;
    while j < code.len() && !code[j].is_punct('{') {
        if code[j].is_punct(';') {
            return None;
        }
        j += 1;
    }
    let mut variants = Vec::new();
    let mut depth = 0usize;
    while j < code.len() {
        let t = &code[j];
        if t.is_punct('{') || t.is_punct('(') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                j += 1;
                break;
            }
        } else if depth == 1
            && t.kind == TokenKind::Ident
            && (code[j - 1].is_punct('{') || code[j - 1].is_punct(','))
        {
            variants.push((t.text.clone(), t.line));
        }
        j += 1;
    }
    Some((
        EnumItem {
            name: name.text.clone(),
            line: code[i].line,
            variants,
        },
        j,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_items(&lex(src))
    }

    #[test]
    fn free_fns_and_calls() {
        let p = parse("pub fn a() { b(); c.d(); E::f(); }\nfn b() {}\n");
        assert_eq!(p.fns.len(), 2);
        assert!(p.fns[0].is_pub);
        assert!(!p.fns[1].is_pub);
        let calls: Vec<(&str, bool)> = p.fns[0]
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.method))
            .collect();
        assert_eq!(calls, vec![("b", false), ("d", true), ("f", false)]);
        assert_eq!(p.fns[0].calls[2].qualifier.as_deref(), Some("E"));
    }

    #[test]
    fn impl_methods_get_qualified_names() {
        let p = parse("struct S { x: u32 }\nimpl S { pub fn go(&self) { self.stop(); } fn stop(&self) {} }\nimpl Drop for S { fn drop(&mut self) {} }\n");
        let names: Vec<&str> = p.fns.iter().map(|f| f.qual_name.as_str()).collect();
        assert_eq!(names, vec!["S::go", "S::stop", "S::drop"]);
    }

    #[test]
    fn struct_fields_spot_hash_types() {
        let p = parse("pub struct C { map: Mutex<HashMap<K, V>>, n: usize }\n");
        assert_eq!(p.structs.len(), 1);
        assert!(p.structs[0].fields[0].is_hash);
        assert!(!p.structs[0].fields[1].is_hash);
    }

    #[test]
    fn consts_enums_and_uses() {
        let p = parse(
            "use std::collections::HashMap;\npub const V: u32 = 4;\npub enum E { A, B(u32), C { x: u8 } }\n",
        );
        assert_eq!(p.consts[0].name, "V");
        assert_eq!(p.uses[0].segments, vec!["std", "collections", "HashMap"]);
        let vars: Vec<&str> = p.enums[0]
            .variants
            .iter()
            .map(|(v, _)| v.as_str())
            .collect();
        assert_eq!(vars, vec!["A", "B", "C"]);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let p = parse("fn hof(cb: fn(usize) -> usize) -> usize { cb(1) }\n");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "hof");
    }

    #[test]
    fn closures_inside_call_args_contribute_call_refs() {
        let p = parse("fn sweep() { run_jobs((0..3).map(|i| move || work(i)).collect(), 2); }\n");
        let names: Vec<&str> = p.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"run_jobs"));
        assert!(names.contains(&"work"));
    }

    #[test]
    fn bodyless_trait_fns_parse() {
        let p = parse("trait T { fn sig(&self); fn with_default(&self) { self.sig() } }\n");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].body, None);
        assert_eq!(p.fns[1].qual_name, "T::with_default");
        assert!(p.fns[1].body.is_some());
    }
}
