//! Call-graph construction and barrier-aware reachability.
//!
//! Nodes are the symbol table's functions; edges come from resolving every
//! call reference on a non-test line. Reachability honors *barriers*:
//! a barrier node is reached (it can be reported) but never expanded, so
//! code behind an allowlisted module or a `catch_unwind` fence does not
//! propagate taint. BFS keeps predecessor links, so every finding can cite
//! a concrete call chain instead of a bare "reachable".

use crate::symbols::SymbolTable;
use crate::Workspace;

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// `edges[i]` = callee indices (into `SymbolTable::fns`) of fn `i`,
    /// deduplicated, in first-seen order.
    pub edges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds edges by resolving every call reference on a non-test line.
    pub fn build(ws: &Workspace, syms: &SymbolTable) -> CallGraph {
        let mut edges = vec![Vec::new(); syms.fns.len()];
        for (i, slot) in edges.iter_mut().enumerate() {
            let (file, f) = syms.fn_at(ws, i);
            if file.is_test_line(f.line) {
                continue;
            }
            for call in &f.calls {
                if file.is_test_line(call.line) {
                    continue;
                }
                for target in syms.resolve(ws, file, &f.qual_name, call) {
                    if target != i && !slot.contains(&target) {
                        slot.push(target);
                    }
                }
            }
        }
        CallGraph { edges }
    }

    /// BFS from `roots`. Returns `preds`: `preds[i] == Some(p)` when `i`
    /// was reached via `p` (roots point at themselves). Nodes for which
    /// `barrier(i)` holds are reached but not expanded.
    pub fn reach(&self, roots: &[usize], barrier: impl Fn(usize) -> bool) -> Vec<Option<usize>> {
        let mut preds: Vec<Option<usize>> = vec![None; self.edges.len()];
        let mut queue = std::collections::VecDeque::new();
        for &r in roots {
            if r < preds.len() && preds[r].is_none() {
                preds[r] = Some(r);
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            if barrier(n) {
                continue;
            }
            for &m in &self.edges[n] {
                if preds[m].is_none() {
                    preds[m] = Some(n);
                    queue.push_back(m);
                }
            }
        }
        preds
    }

    /// The root-to-`target` chain recorded in `preds`, as fn indices.
    pub fn chain(preds: &[Option<usize>], target: usize) -> Vec<usize> {
        let mut chain = vec![target];
        let mut cur = target;
        while let Some(p) = preds[cur] {
            if p == cur {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
    }

    /// Renders a chain as `a -> b -> c` using qualified fn names.
    pub fn render_chain(ws: &Workspace, syms: &SymbolTable, chain: &[usize]) -> String {
        chain
            .iter()
            .map(|&i| syms.fn_at(ws, i).1.qual_name.clone())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::from_memory(
            vec![("crates/core/src/a.rs".to_string(), src.to_string())],
            None,
        )
    }

    fn idx(syms: &SymbolTable, ws: &Workspace, name: &str) -> usize {
        (0..syms.fns.len())
            .find(|&i| syms.fn_at(ws, i).1.name == name)
            .unwrap_or_else(|| panic!("fn {name} not found"))
    }

    #[test]
    fn reachability_follows_chains_and_cites_them() {
        let w = ws("pub fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn unrelated() {}");
        let syms = SymbolTable::build(&w);
        let g = CallGraph::build(&w, &syms);
        let (a, c) = (idx(&syms, &w, "a"), idx(&syms, &w, "c"));
        let preds = g.reach(&[a], |_| false);
        assert!(preds[c].is_some());
        assert!(preds[idx(&syms, &w, "unrelated")].is_none());
        let chain = CallGraph::chain(&preds, c);
        assert_eq!(CallGraph::render_chain(&w, &syms, &chain), "a -> b -> c");
    }

    #[test]
    fn barriers_stop_expansion_but_are_reached() {
        let w = ws("pub fn a() { fence(); }\nfn fence() { inner(); }\nfn inner() {}");
        let syms = SymbolTable::build(&w);
        let g = CallGraph::build(&w, &syms);
        let fence = idx(&syms, &w, "fence");
        let preds = g.reach(&[idx(&syms, &w, "a")], |i| i == fence);
        assert!(preds[fence].is_some());
        assert!(preds[idx(&syms, &w, "inner")].is_none());
    }

    #[test]
    fn cycles_terminate() {
        let w = ws("pub fn a() { b(); }\nfn b() { a(); }");
        let syms = SymbolTable::build(&w);
        let g = CallGraph::build(&w, &syms);
        let preds = g.reach(&[idx(&syms, &w, "a")], |_| false);
        assert!(preds[idx(&syms, &w, "b")].is_some());
    }
}
