//! NF-PAR-001/002: parallelism discipline for the work-stealing
//! runner and the sharded slot kernel.
//!
//! Entry points are every function in the runner and slot-kernel
//! modules ([`rules::PAR_ENTRY_GLOBS`]) — `run_batch`, `worker_loop`,
//! `drain`, the fused-pass `sweep`, `run_stages`, and their helpers.
//! Because the call graph links `R::map(...)` and `reducer.fold(...)`
//! to *every* `Reduce` impl in the workspace ("assume reachable"),
//! the closure covers each reducer body too.
//! Two site families are scanned on the closure:
//!
//! * **NF-PAR-001** — interior mutability (`Mutex`, `RwLock`,
//!   `RefCell`, `Cell`, ...) and `static mut`: shared mutable state a
//!   worker could race on, or use to make `map` results depend on
//!   scheduling order.
//! * **NF-PAR-002** — unordered-iteration sources (`HashMap`,
//!   `HashSet`): iteration order varies run to run, so any fold over
//!   them breaks the parallel == serial golden guarantee the runner's
//!   tests pin.
//!
//! Atomics and channels are *not* flagged: the pool's own
//! `AtomicUsize` job cursor and mpsc result channel are the sanctioned
//! coordination mechanism, and determinism is restored by `drain`
//! folding results in ascending job order.

use crate::engine::{glob_matches, Violation};
use crate::graph::CallGraph;
use crate::lexer::{Tok, TokKind};
use crate::parser::FileModel;
use crate::rules;
use std::ops::Range;

/// Interior-mutability sites in `range`: `(line, name)`. Matches any
/// mention of the banned types (construction, annotation, or
/// qualified call — a type that never appears cannot be raced on) and
/// `static mut` declarations.
pub(crate) fn interior_mut_sites(toks: &[Tok], range: Range<usize>) -> Vec<(u32, String)> {
    let mut hits = Vec::new();
    for i in range {
        let Some(tok) = toks.get(i) else { break };
        if tok.kind != TokKind::Ident {
            continue;
        }
        if rules::PAR_INTERIOR_MUT_IDENTS.contains(&tok.text.as_str()) {
            hits.push((tok.line, tok.text.clone()));
        } else if tok.text == "static" && toks.get(i + 1).is_some_and(|t| t.is_ident("mut")) {
            hits.push((tok.line, "static mut".to_string()));
        }
    }
    hits
}

/// Unordered-collection sites in `range`: `(line, name)`.
pub(crate) fn unordered_sites(toks: &[Tok], range: Range<usize>) -> Vec<(u32, String)> {
    let mut hits = Vec::new();
    for i in range {
        let Some(tok) = toks.get(i) else { break };
        if tok.kind == TokKind::Ident && rules::BANNED_HASH_IDENTS.contains(&tok.text.as_str()) {
            hits.push((tok.line, tok.text.clone()));
        }
    }
    hits
}

/// NF-PAR-001/002: racy or order-sensitive constructs transitively
/// reachable from the parallel runner.
pub(crate) fn parallel_discipline(models: &[FileModel], graph: &CallGraph) -> Vec<Violation> {
    let entries: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter_map(|(id, n)| {
            let rel = models.get(n.file).map(|m| m.rel.as_str())?;
            rules::PAR_ENTRY_GLOBS
                .iter()
                .any(|g| glob_matches(g, rel))
                .then_some(id)
        })
        .collect();
    let reach = graph.reach_forward(&entries);
    let mut out = Vec::new();
    for (id, n) in graph.nodes.iter().enumerate() {
        if !reach.visited(id) {
            continue;
        }
        let Some(m) = models.get(n.file) else {
            continue;
        };
        if !m.class.is_library {
            continue;
        }
        let chain = graph.chain(&reach, id);
        for (line, name) in interior_mut_sites(&m.toks, n.body.clone()) {
            out.push(Violation {
                rule: "NF-PAR-001",
                path: m.rel.clone(),
                line,
                message: format!(
                    "`{}` uses interior mutability `{name}` and is reachable from the parallel runner",
                    n.display
                ),
                subject: name,
                chain: chain.clone(),
            });
        }
        for (line, name) in unordered_sites(&m.toks, n.body.clone()) {
            out.push(Violation {
                rule: "NF-PAR-002",
                path: m.rel.clone(),
                line,
                message: format!(
                    "`{}` uses unordered `{name}` and is reachable from the parallel runner",
                    n.display
                ),
                subject: name,
                chain: chain.clone(),
            });
        }
    }
    out
}
