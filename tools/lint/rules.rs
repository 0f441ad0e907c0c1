//! The lint rules, R1–R3 and R8–R10, evaluated over the parsed file
//! models and effect summaries.
//!
//! R2 and R3 are the historical rules re-expressed over the token stream
//! (they used to be per-line regexes); R1 reads kernel effect summaries;
//! R8–R10 are the flow-sensitive checks that guard the pin/epoch and
//! publication protocols:
//! - **R8 `pin-escape`** — guard liveness. `ReadGuard`/`ReadPin` values
//!   are tracked from `pin()`/`pin_read()` through bindings, moves and
//!   drops; every query-path kernel launch must be dominated by a live
//!   guard (a guard parameter or a still-live local), a guard must not be
//!   discarded at birth (`let _ = g.pin_read()`), must not be live across
//!   an `advance_era()`, and must not escape a function whose return type
//!   doesn't carry it.
//! - **R9 `publication-order`** — cross-kernel word classes (keyed by the
//!   named constants in their address expressions, e.g. `NEXT_LANE`)
//!   written in one kernel and read in a concurrently-running pinned
//!   reader kernel must be published atomically (`atomic_cas` /
//!   `atomic_exchange` / RMW — the simulator models atomics as
//!   release+acquire); a plain `write_word`-family store to such a word
//!   is exactly the class of publication race the sanitizer caught
//!   dynamically in PR 4.
//! - **R10 `era-advance`** — every mutation batch entry point in
//!   `crates/core` and `crates/router` must reach `advance_era()` (the
//!   release edge of the epoch protocol) on its success paths: the entry
//!   point must transitively reach an advance through the call graph, and
//!   no batch-boundary function may early-return success between its
//!   kernel launch and its era advance.

use super::effects::{effects_of, AccessKind, EffectIndex, Effects};
use super::parser::{Func, Kernel, Tree, LAUNCHERS};
use std::collections::BTreeSet;

/// Rule metadata.
pub struct RuleMeta {
    pub id: &'static str,
    pub name: &'static str,
    pub desc: &'static str,
}

pub const RULES: [RuleMeta; 6] = [
    RuleMeta {
        id: "R1",
        name: "host-transfer-in-kernel",
        desc: "host transfer inside a kernel closure is uncharged and invisible to racecheck",
    },
    RuleMeta {
        id: "R2",
        name: "relaxed-ordering",
        desc: "Ordering::Relaxed outside gpu-sim defeats acquire/release publication",
    },
    RuleMeta {
        id: "R3",
        name: "unnamed-launch",
        desc: "kernel launch without a literal name breaks attribution/provenance",
    },
    RuleMeta {
        id: "R8",
        name: "pin-escape",
        desc: "guard liveness violation: launch not dominated by a live ReadGuard, guard discarded, escaping, or crossing advance_era",
    },
    RuleMeta {
        id: "R9",
        name: "publication-order",
        desc: "word class written non-atomically in one kernel but read by a pinned reader kernel; publish with atomic_cas/atomic_exchange",
    },
    RuleMeta {
        id: "R10",
        name: "era-advance",
        desc: "mutation batch entry point does not reach advance_era() on its success paths",
    },
];

pub fn rule_meta(id: &str) -> &'static RuleMeta {
    RULES.iter().find(|r| r.id == id).unwrap_or(&RULES[0])
}

/// One lint finding with full provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: String,
    pub path: String,
    pub line: u32,
    /// Kernel name, when the finding is attributed to a kernel.
    pub kernel: String,
    /// Enclosing function, when known.
    pub func: String,
    pub message: String,
    pub excerpt: String,
}

/// A scanned file ready for rule evaluation.
pub struct ScannedFile {
    pub path: String,
    pub lines: Vec<String>,
    pub trees: Vec<Tree>,
    pub model: super::parser::FileModel,
}

impl ScannedFile {
    pub fn new(path: &str, src: &str) -> ScannedFile {
        let trees = super::parser::build_trees(&super::lexer::lex(src));
        let model = super::parser::model_of(&trees);
        ScannedFile {
            path: path.to_string(),
            lines: src.lines().map(|l| l.to_string()).collect(),
            trees,
            model,
        }
    }

    fn excerpt(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

// ---- scopes ---------------------------------------------------------------

fn in_gpu_sim(path: &str) -> bool {
    path.starts_with("crates/gpu-sim/")
}

/// The pinned query path, where R8 guard-domination applies: these
/// files launch chain-walking read kernels whose slabs only a live
/// `ReadGuard` holds back from reclamation.
fn in_query_scope(path: &str) -> bool {
    path == "crates/core/src/query.rs" || path == "crates/core/src/stats.rs"
}

/// Era-protocol scope, where R10 applies: the core graph and the router
/// acknowledge mutation batches.
fn in_era_scope(path: &str) -> bool {
    path.starts_with("crates/core/src/") || path.starts_with("crates/router/src/")
}

/// Function names that acknowledge a mutation batch — R10 entry points.
fn is_mutation_entry(name: &str) -> bool {
    name.starts_with("insert_")
        || name.starts_with("delete_")
        || name.starts_with("try_insert_")
        || name.starts_with("try_delete_")
        || matches!(
            name,
            "flush"
                | "flush_tombstones"
                | "rehash_overloaded"
                | "purge_deleted"
                | "try_purge_deleted"
                | "retry_suffix"
                | "rebuild_downed"
        )
}

/// Guard-carrying types for R8.
fn is_guard_type(ty: &str) -> bool {
    ty.contains("ReadGuard") || ty.contains("ReadPin")
}

// ---- shared tree helpers --------------------------------------------------

/// Recursively test whether `trees` contains a dotted call to any name in
/// `names` (`x.name(…)`).
fn contains_dotted_call(trees: &[Tree], names: &[&str]) -> Option<u32> {
    for (i, t) in trees.iter().enumerate() {
        if let Tree::Group { trees: inner, .. } = t {
            if let Some(line) = contains_dotted_call(inner, names) {
                return Some(line);
            }
            continue;
        }
        let Some(tok) = t.as_leaf() else { continue };
        if names.contains(&tok.text.as_str())
            && i > 0
            && trees[i - 1].as_leaf().is_some_and(|p| p.is_punct("."))
            && trees.get(i + 1).is_some_and(|a| a.is_group('('))
        {
            return Some(tok.line);
        }
    }
    None
}

/// Recursively test whether `trees` contains a call to `name` in any form
/// (`name(…)` or `x.name(…)`), excluding declarations.
fn contains_call(trees: &[Tree], name: &str) -> Option<u32> {
    for (i, t) in trees.iter().enumerate() {
        if let Tree::Group { trees: inner, .. } = t {
            if let Some(line) = contains_call(inner, name) {
                return Some(line);
            }
            continue;
        }
        let Some(tok) = t.as_leaf() else { continue };
        if tok.text == name
            && trees.get(i + 1).is_some_and(|a| a.is_group('('))
            && !(i > 0 && trees[i - 1].as_leaf().is_some_and(|p| p.is_ident("fn")))
        {
            return Some(tok.line);
        }
    }
    None
}

/// Does this tree slice mention `ident` as a standalone leaf?
fn mentions_ident(trees: &[Tree], ident: &str) -> bool {
    trees.iter().any(|t| match t {
        Tree::Group { trees: inner, .. } => mentions_ident(inner, ident),
        Tree::Leaf(tok) => tok.is_ident(ident),
    })
}

/// Body statements: top-level chunks split at `;`, and after a
/// `{…}`-terminated statement (`if`/`for`/`while`/`match`/`loop`/block)
/// when what follows starts a new statement. A `{}` group followed by
/// `else`, an operator, or `;` stays inside its chunk (it is part of an
/// expression). The trailing expression is the final statement.
fn statements(body: &[Tree]) -> Vec<&[Tree]> {
    let mut parts = Vec::new();
    let mut start = 0;
    for (i, t) in body.iter().enumerate() {
        if t.as_leaf().is_some_and(|tok| tok.is_punct(";")) {
            parts.push(&body[start..i]);
            start = i + 1;
        } else if t.is_group('{') && i >= start {
            let next_starts_stmt = body.get(i + 1).is_some_and(|n| {
                n.as_leaf().is_some_and(|l| {
                    (l.kind == super::lexer::TokKind::Ident && !l.is_ident("else"))
                        || l.is_punct("#")
                })
            });
            if next_starts_stmt {
                parts.push(&body[start..=i]);
                start = i + 1;
            }
        }
    }
    parts.push(&body[start..]);
    parts.into_iter().filter(|s| !s.is_empty()).collect()
}

/// A pin-producing call (`pin_read()` / `.pin(…)`) whose argument group is
/// the *last* tree of this slice — i.e. the guard value is the expression's
/// own result, not a temporary nested inside some other call's arguments.
fn top_level_pin_call(trees: &[Tree]) -> Option<u32> {
    if trees.len() < 2 || !trees[trees.len() - 1].is_group('(') {
        return None;
    }
    let callee = trees[trees.len() - 2].as_leaf()?;
    if callee.text == "pin_read" || callee.text == "pin" {
        Some(callee.line)
    } else {
        None
    }
}

// ---- the pass -------------------------------------------------------------

/// Run every rule over the scanned files. `index` carries the
/// workspace-wide effect summaries for cross-kernel (R9) and
/// reachability (R10) analysis.
pub fn run_rules(files: &[ScannedFile], index: &EffectIndex) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        token_rules(file, &mut findings);
        guard_rules(file, &mut findings);
        era_rules(file, index, &mut findings);
    }
    publication_rules(files, index, &mut findings);
    findings.sort_by(|a, b| {
        let ra = rule_ord(&a.rule);
        let rb = rule_ord(&b.rule);
        ra.cmp(&rb)
            .then(a.path.cmp(&b.path))
            .then(a.line.cmp(&b.line))
            .then(a.message.cmp(&b.message))
    });
    findings.dedup();
    findings
}

fn rule_ord(id: &str) -> u32 {
    id.trim_start_matches('R').parse().unwrap_or(99)
}

fn push(
    findings: &mut Vec<Finding>,
    file: &ScannedFile,
    rule: &str,
    line: u32,
    kernel: &str,
    func: &str,
    message: String,
) {
    findings.push(Finding {
        rule: rule.to_string(),
        path: file.path.clone(),
        line,
        kernel: kernel.to_string(),
        func: func.to_string(),
        message,
        excerpt: file.excerpt(line),
    });
}

/// R2: a whole-file token-sequence rule; R1 / R3: per-kernel rules.
fn token_rules(file: &ScannedFile, findings: &mut Vec<Finding>) {
    let gpu_sim = in_gpu_sim(&file.path);
    token_walk(&file.trees, &mut |trees, i| {
        let Some(tok) = trees[i].as_leaf() else {
            return;
        };
        // R2: `Ordering::Relaxed` outside gpu-sim.
        if !gpu_sim
            && tok.is_ident("Ordering")
            && trees
                .get(i + 1)
                .is_some_and(|t| t.as_leaf().is_some_and(|s| s.is_punct("::")))
            && trees
                .get(i + 2)
                .is_some_and(|t| t.as_leaf().is_some_and(|s| s.is_ident("Relaxed")))
        {
            let line = trees[i + 2].line();
            push(
                findings,
                file,
                "R2",
                line,
                "",
                "",
                "Ordering::Relaxed outside gpu-sim".to_string(),
            );
        }
    });
    for k in &file.model.kernels {
        // R1: host transfers lexically inside the launch closure.
        if !gpu_sim {
            for (method, line) in effects_of(&k.body).host_calls {
                push(
                    findings,
                    file,
                    "R1",
                    line,
                    k.name.as_deref().unwrap_or("<dynamic>"),
                    &k.in_func,
                    format!("host transfer `{method}` inside a kernel closure (uncharged, not racechecked)"),
                );
            }
        }
        // R3: kernels whose name argument is not a string literal.
        if k.name.is_none() {
            push(
                findings,
                file,
                "R3",
                k.line,
                "",
                &k.in_func,
                format!("`{}` call site without a literal kernel name", k.launcher),
            );
        }
    }
}

/// Depth-first walk invoking `f` at every position of every tree level.
fn token_walk(trees: &[Tree], f: &mut impl FnMut(&[Tree], usize)) {
    for (i, t) in trees.iter().enumerate() {
        f(trees, i);
        if let Tree::Group { trees: inner, .. } = t {
            token_walk(inner, f);
        }
    }
}

/// R8: guard liveness over the pinned query path.
fn guard_rules(file: &ScannedFile, findings: &mut Vec<Finding>) {
    if in_gpu_sim(&file.path) {
        return;
    }
    let query_scope = in_query_scope(&file.path);
    for func in &file.model.funcs {
        if func.cfg_test {
            continue;
        }
        // Guard parameters are live for the whole function body.
        let guard_params: BTreeSet<String> = func
            .params
            .iter()
            .filter(|p| is_guard_type(&p.ty))
            .map(|p| p.name.clone())
            .collect();
        let mut live: BTreeSet<String> = BTreeSet::new();
        // The trailing expression (a body not ending in `;`) is the return
        // value — a pin call there hands the guard to the caller.
        let has_trailing_expr = func
            .body
            .last()
            .is_some_and(|t| !t.as_leaf().is_some_and(|l| l.is_punct(";")));
        let stmts = statements(&func.body);
        for (idx, stmt) in stmts.iter().enumerate() {
            let stmt: &[Tree] = stmt;
            let is_trailing = has_trailing_expr && idx == stmts.len() - 1;
            // Guard births: `let g = x.pin_read()` / `let g = a.pin(…)` /
            // `let g: ReadGuard = …` / `let g2 = g1` (move). The pin call
            // must be the init's own top-level call — a guard temporary
            // nested in another call's arguments (`g.neighbors(&g.pin_read(),
            // v)`) lives exactly as long as its statement and binds nothing.
            if let Some((name, init)) = binding_of(stmt) {
                let pins = top_level_pin_call(init).is_some();
                let ascribed = binding_type(stmt).is_some_and(|ty| is_guard_type(&ty));
                let moved_from = init
                    .iter()
                    .filter_map(|t| t.as_leaf())
                    .find(|t| live.contains(&t.text))
                    .map(|t| t.text.clone());
                if pins || ascribed || moved_from.is_some() {
                    if name == "_" {
                        // A guard bound to `_` drops immediately: it pins
                        // nothing by the time any kernel runs.
                        push(
                            findings,
                            file,
                            "R8",
                            stmt.first().map_or(func.line, |t| t.line()),
                            "",
                            &func.name,
                            "ReadGuard discarded at birth (`let _ = …pin…`); bind it for the walk's duration".to_string(),
                        );
                    } else {
                        live.insert(name);
                        if let (Some(src), true) = (&moved_from, init.len() == 1) {
                            // A plain move (`let g2 = g1;`) ends g1.
                            live.remove(src);
                        }
                    }
                }
            } else if !is_trailing
                && stmt
                    .first()
                    .is_some_and(|t| t.as_leaf().is_none_or(|l| !l.is_ident("return")))
            {
                // A bare `x.pin_read();` statement: guard dropped at the
                // end of the statement, pinning nothing.
                if let Some(line) = top_level_pin_call(stmt) {
                    push(
                        findings,
                        file,
                        "R8",
                        line,
                        "",
                        &func.name,
                        "ReadGuard dropped in the same statement that pinned it".to_string(),
                    );
                }
            }

            // Guard deaths: `drop(g)`.
            if let Some(dropped) = dropped_ident(stmt) {
                live.remove(&dropped);
            }

            // Era advancement with a live local guard: the guard's era can
            // never be drained while it lives, and a mutator advancing
            // under its own pin deadlocks reclamation.
            if !live.is_empty() {
                if let Some(line) = contains_call(stmt, "advance_era") {
                    push(
                        findings,
                        file,
                        "R8",
                        line,
                        "",
                        &func.name,
                        format!(
                            "advance_era() while guard{} {:?} still live",
                            if live.len() == 1 { "" } else { "s" },
                            live.iter().cloned().collect::<Vec<_>>()
                        ),
                    );
                }
            }

            // Query-path launches must be dominated by a live guard.
            if query_scope {
                if let Some(line) = contains_dotted_call(stmt, &["launch_tasks", "launch_warps"]) {
                    if guard_params.is_empty() && live.is_empty() {
                        push(
                            findings,
                            file,
                            "R8",
                            line,
                            "",
                            &func.name,
                            "chain-walking launch not dominated by a live ReadGuard".to_string(),
                        );
                    }
                }
            }

            // Guard escape: returning a live guard from a function whose
            // signature doesn't say so.
            if !live.is_empty()
                && stmt
                    .first()
                    .is_some_and(|t| t.as_leaf().is_some_and(|l| l.is_ident("return")))
                && !is_guard_type(&func.ret)
            {
                for g in &live {
                    if mentions_ident(&stmt[1..], g) {
                        push(
                            findings,
                            file,
                            "R8",
                            stmt[0].line(),
                            "",
                            &func.name,
                            format!(
                                "guard `{g}` escapes through a return type that does not carry it"
                            ),
                        );
                    }
                }
            }
        }
        // Final-expression escape: the trailing statement returns the
        // guard by value.
        if !is_guard_type(&func.ret) {
            if let Some(last) = statements(&func.body).last() {
                if last.len() == 1 {
                    if let Some(tok) = last[0].as_leaf() {
                        if live.contains(&tok.text) {
                            push(
                                findings,
                                file,
                                "R8",
                                tok.line,
                                "",
                                &func.name,
                                format!(
                                    "guard `{}` escapes through a return type that does not carry it",
                                    tok.text
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// `let [mut] name … = init` → (name, init trees).
fn binding_of(stmt: &[Tree]) -> Option<(String, &[Tree])> {
    if !stmt.first()?.as_leaf()?.is_ident("let") {
        return None;
    }
    let mut name = None;
    for (i, t) in stmt.iter().enumerate().skip(1) {
        if let Some(tok) = t.as_leaf() {
            if tok.is_punct("=") {
                return Some((name?, &stmt[i + 1..]));
            }
            if tok.kind == super::lexer::TokKind::Ident
                && !matches!(tok.text.as_str(), "mut" | "ref")
                && name.is_none()
            {
                name = Some(tok.text.clone());
            }
        }
    }
    None
}

/// The ascribed type text of a `let name: Ty = …` statement.
fn binding_type(stmt: &[Tree]) -> Option<String> {
    if !stmt.first()?.as_leaf()?.is_ident("let") {
        return None;
    }
    let colon = stmt
        .iter()
        .position(|t| t.as_leaf().is_some_and(|l| l.is_punct(":")))?;
    let eq = stmt
        .iter()
        .position(|t| t.as_leaf().is_some_and(|l| l.is_punct("=")))?;
    if colon >= eq {
        return None;
    }
    Some(
        stmt[colon + 1..eq]
            .iter()
            .map(|t| t.flat_text())
            .collect::<Vec<_>>()
            .join(" "),
    )
}

/// `drop(g)` → `g`.
fn dropped_ident(stmt: &[Tree]) -> Option<String> {
    for (i, t) in stmt.iter().enumerate() {
        if t.as_leaf().is_some_and(|l| l.is_ident("drop")) {
            if let Some([Tree::Leaf(tok)]) = stmt.get(i + 1).and_then(|a| a.group_trees()) {
                return Some(tok.text.clone());
            }
        }
    }
    None
}

/// R10: era-advance reachability and batch-boundary ordering.
fn era_rules(file: &ScannedFile, index: &EffectIndex, findings: &mut Vec<Finding>) {
    if !in_era_scope(&file.path) {
        return;
    }
    for func in &file.model.funcs {
        if func.cfg_test {
            continue;
        }
        let fx = effects_of(&func.body);
        // (a) Reachability: a mutation batch entry point must reach
        // advance_era through the call graph.
        if is_mutation_entry(&func.name) && !index.reaches(func, "advance_era", 8) {
            push(
                findings,
                file,
                "R10",
                func.line,
                "",
                &func.name,
                format!(
                    "mutation entry point `{}` never reaches advance_era(); the epoch release edge is missing",
                    func.name
                ),
            );
        }
        // (b) Ordering at the batch boundary: in a function that both
        // launches and advances, no top-level success return may sit
        // between the launch and the advance.
        if fx.era_advances.is_empty() {
            continue;
        }
        let mut launched = false;
        let mut advanced = false;
        for stmt in statements(&func.body) {
            if contains_dotted_call(stmt, &LAUNCHERS).is_some() {
                launched = true;
            }
            if contains_call(stmt, "advance_era").is_some() {
                advanced = true;
            }
            if launched && !advanced {
                if let Some(line) = success_return(stmt) {
                    push(
                        findings,
                        file,
                        "R10",
                        line,
                        "",
                        &func.name,
                        "success return between kernel launch and advance_era(): the batch acknowledges before publishing its frees".to_string(),
                    );
                }
            }
        }
    }
}

/// A `return Ok(…)` / `return Some(…)` success exit inside this statement.
fn success_return(trees: &[Tree]) -> Option<u32> {
    let mut found = None;
    token_walk(trees, &mut |ts, i| {
        if found.is_some() {
            return;
        }
        let Some(tok) = ts[i].as_leaf() else { return };
        if tok.is_ident("return")
            && ts.get(i + 1).is_some_and(|t| {
                t.as_leaf()
                    .is_some_and(|l| l.is_ident("Ok") || l.is_ident("Some"))
            })
        {
            found = Some(tok.line);
        }
    });
    found
}

/// R9: cross-kernel publication-order analysis over effect summaries.
fn publication_rules(files: &[ScannedFile], index: &EffectIndex, findings: &mut Vec<Finding>) {
    struct KernelFx<'k> {
        file_idx: usize,
        kernel: &'k Kernel,
        fx: Effects,
        reader_side: bool,
    }
    let mut kernels: Vec<KernelFx> = Vec::new();
    for (file_idx, file) in files.iter().enumerate() {
        if in_gpu_sim(&file.path) {
            continue;
        }
        for kernel in &file.model.kernels {
            if kernel.cfg_test {
                continue;
            }
            let fx = index.transitive(&effects_of(&kernel.body), 8);
            let reader_side = files[file_idx]
                .model
                .funcs
                .iter()
                .find(|f| f.name == kernel.in_func)
                .is_some_and(is_pinned_reader);
            kernels.push(KernelFx {
                file_idx,
                kernel,
                fx,
                reader_side,
            });
        }
    }
    for writer in &kernels {
        for access in &writer.fx.accesses {
            if access.kind != AccessKind::Write || !access.key.starts_with("const:") {
                continue;
            }
            // Find a pinned reader of the same word class in a different
            // kernel. Kernel identity is the literal name; two launch
            // sites of the same kernel name are the same kernel.
            let reader = kernels.iter().find(|r| {
                r.reader_side
                    && r.kernel.name != writer.kernel.name
                    && r.fx
                        .accesses
                        .iter()
                        .any(|a| a.key == access.key && matches!(a.kind, AccessKind::Read))
            });
            if let Some(reader) = reader {
                let file = &files[writer.file_idx];
                let wname = writer.kernel.name.as_deref().unwrap_or("<dynamic>");
                let rname = reader.kernel.name.as_deref().unwrap_or("<dynamic>");
                push(
                    findings,
                    file,
                    "R9",
                    writer.kernel.line,
                    wname,
                    &writer.kernel.in_func,
                    format!(
                        "kernel `{wname}` stores word class `{}` with plain `{}` (line {}), but pinned reader kernel `{rname}` loads it concurrently; publish with atomic_cas/atomic_exchange",
                        access.key, access.method, access.line
                    ),
                );
            }
        }
    }
}

/// Is `func` part of the pinned read path — does it take a guard
/// parameter or pin locally?
fn is_pinned_reader(func: &Func) -> bool {
    func.params.iter().any(|p| is_guard_type(&p.ty))
        || contains_call(&func.body, "pin_read").is_some()
}
