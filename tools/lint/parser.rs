//! Token trees and item extraction for the kernel lint.
//!
//! The flat token stream from [`crate::lint::lexer`] is grouped into
//! bracket-matched *token trees*, and the trees are walked to extract the
//! model the rules run on:
//!
//! - every function item (name, impl-context, params with type text,
//!   return-type text, body), with `#[cfg(test)]` provenance so rules can
//!   exempt test scaffolding;
//! - every kernel: a closure passed to `launch_tasks` / `launch_warps`
//!   (plus `memset`, which is a launch with an implicit fill body), with
//!   its literal name when one is given;
//! - statement boundaries inside bodies, for the flow-sensitive rules.

use super::lexer::{lex, Tok, TokKind};

/// A token tree: a leaf token or a bracket-delimited group.
#[derive(Debug, Clone)]
pub enum Tree {
    Leaf(Tok),
    Group {
        /// `(`, `[`, or `{`.
        delim: char,
        open_line: u32,
        trees: Vec<Tree>,
    },
}

impl Tree {
    pub fn line(&self) -> u32 {
        match self {
            Tree::Leaf(t) => t.line,
            Tree::Group { open_line, .. } => *open_line,
        }
    }

    pub fn as_leaf(&self) -> Option<&Tok> {
        match self {
            Tree::Leaf(t) => Some(t),
            _ => None,
        }
    }

    pub fn is_group(&self, delim: char) -> bool {
        matches!(self, Tree::Group { delim: d, .. } if *d == delim)
    }

    pub fn group_trees(&self) -> Option<&[Tree]> {
        match self {
            Tree::Group { trees, .. } => Some(trees),
            _ => None,
        }
    }

    /// Concatenated source-ish text (single spaces between tokens) — used
    /// for excerpts and type comparisons, never re-parsed.
    pub fn flat_text(&self) -> String {
        let mut out = String::new();
        self.write_text(&mut out);
        out
    }

    fn write_text(&self, out: &mut String) {
        match self {
            Tree::Leaf(t) => {
                if !out.is_empty() && !matches!(t.text.as_str(), "." | "," | ";" | "::" | "(") {
                    out.push(' ');
                }
                out.push_str(&t.text);
            }
            Tree::Group { delim, trees, .. } => {
                out.push(*delim);
                for t in trees {
                    t.write_text(out);
                }
                out.push(match delim {
                    '(' => ')',
                    '[' => ']',
                    _ => '}',
                });
            }
        }
    }
}

/// Group a token stream into trees. Tolerant: a stray close delimiter is
/// dropped, EOF closes every open group.
pub fn build_trees(toks: &[Tok]) -> Vec<Tree> {
    let mut stack: Vec<(char, u32, Vec<Tree>)> = Vec::new();
    let mut top: Vec<Tree> = Vec::new();
    for tok in toks {
        match tok.kind {
            TokKind::Open => {
                stack.push((tok.text.chars().next().unwrap(), tok.line, Vec::new()));
            }
            TokKind::Close => {
                if let Some((delim, open_line, trees)) = stack.pop() {
                    let group = Tree::Group {
                        delim,
                        open_line,
                        trees,
                    };
                    match stack.last_mut() {
                        Some((_, _, parent)) => parent.push(group),
                        None => top.push(group),
                    }
                }
            }
            _ => {
                let leaf = Tree::Leaf(tok.clone());
                match stack.last_mut() {
                    Some((_, _, trees)) => trees.push(leaf),
                    None => top.push(leaf),
                }
            }
        }
    }
    while let Some((delim, open_line, trees)) = stack.pop() {
        let group = Tree::Group {
            delim,
            open_line,
            trees,
        };
        match stack.last_mut() {
            Some((_, _, parent)) => parent.push(group),
            None => top.push(group),
        }
    }
    top
}

/// One function parameter: binding name (first ident of the pattern) and
/// the flattened type text after `:` (empty for bare `self`).
#[derive(Debug, Clone)]
pub struct Param {
    pub name: String,
    pub ty: String,
}

/// An extracted function item.
#[derive(Debug)]
pub struct Func {
    /// Simple name (`edges_exist`).
    pub name: String,
    /// `Type::name` when inside an `impl` block.
    pub qualified: String,
    pub line: u32,
    pub params: Vec<Param>,
    /// Flattened return-type text; empty for `()`.
    pub ret: String,
    /// Body token trees (the `{…}` group's contents).
    pub body: Vec<Tree>,
    /// Whether the function sits under a `#[cfg(test)]` module (or is
    /// itself `#[test]`) — rules exempt test scaffolding.
    pub cfg_test: bool,
}

/// A kernel: the closure argument of a `launch_tasks` / `launch_warps` /
/// `memset` call site.
#[derive(Debug)]
pub struct Kernel {
    /// The literal kernel name, or `None` when the name argument is not a
    /// string literal (reported as `<dynamic>`).
    pub name: Option<String>,
    /// `launch_tasks` / `launch_warps` / `memset`.
    pub launcher: String,
    pub line: u32,
    /// Simple name of the enclosing function (empty at module scope).
    pub in_func: String,
    /// Closure body trees (empty for `memset`).
    pub body: Vec<Tree>,
    pub cfg_test: bool,
}

/// The per-file parse: functions and kernels in source order.
#[derive(Debug, Default)]
pub struct FileModel {
    pub funcs: Vec<Func>,
    pub kernels: Vec<Kernel>,
}

/// Parse one file's source into its model.
pub fn parse_file(src: &str) -> FileModel {
    model_of(&build_trees(&lex(src)))
}

/// Build the model from already-grouped token trees (callers that also
/// need the raw trees — the token-level rules — avoid re-lexing).
pub fn model_of(trees: &[Tree]) -> FileModel {
    let mut model = FileModel::default();
    walk_items(trees, "", false, &mut model);
    // Kernels are found inside function bodies (and rarely at module
    // scope, e.g. in doc-test-less examples).
    let mut kernels = Vec::new();
    for f in &model.funcs {
        find_kernels(&f.body, &f.name, f.cfg_test, &mut kernels);
    }
    find_kernels(trees, "", false, &mut kernels);
    // Module-scope pass re-visits function bodies; keep the first sighting
    // of each call site (function-attributed ones are pushed first).
    kernels.sort_by_key(|k| k.line);
    kernels.dedup_by_key(|k| k.line);
    model.kernels = kernels;
    model
}

/// Recursively collect `fn` items, tracking impl context and
/// `#[cfg(test)]` scope.
fn walk_items(trees: &[Tree], impl_ctx: &str, in_test: bool, model: &mut FileModel) {
    let mut i = 0;
    while i < trees.len() {
        // `#[cfg(test)]` / `#[test]` attribute ahead of the next item.
        let mut test_here = in_test;
        if trees[i].as_leaf().is_some_and(|t| t.is_punct("#")) {
            if let Some(attr) = trees.get(i + 1) {
                if attr.is_group('[') {
                    let text = attr.flat_text().replace(' ', "");
                    if text.contains("cfg(test") || text == "[test]" {
                        test_here = true;
                    }
                    // Attach to the item that follows.
                    if let Some(consumed) = item_at(trees, i + 2, impl_ctx, test_here, model) {
                        i = consumed;
                        continue;
                    }
                    i += 2;
                    continue;
                }
            }
        }
        match item_at(trees, i, impl_ctx, test_here, model) {
            Some(next) => i = next,
            None => i += 1,
        }
    }
}

/// Try to parse an item (fn / impl / mod) starting at `trees[i]`.
/// Returns the index just past the item when one was consumed.
fn item_at(
    trees: &[Tree],
    i: usize,
    impl_ctx: &str,
    in_test: bool,
    model: &mut FileModel,
) -> Option<usize> {
    let head = trees.get(i)?.as_leaf()?;
    match head.text.as_str() {
        "fn" => {
            let name = trees.get(i + 1)?.as_leaf()?.text.clone();
            // Skip generics: scan forward to the parameter group.
            let mut j = i + 2;
            while j < trees.len() && !trees[j].is_group('(') {
                // Body-less signatures (traits) end at `;`.
                if trees[j].as_leaf().is_some_and(|t| t.is_punct(";")) {
                    return Some(j + 1);
                }
                j += 1;
            }
            let params = parse_params(trees.get(j)?);
            // Return type: tokens between `->` and the body/where clause.
            let mut ret = String::new();
            let mut k = j + 1;
            let mut in_ret = false;
            while k < trees.len() {
                match &trees[k] {
                    Tree::Group { delim: '{', .. } => break,
                    Tree::Leaf(t) if t.is_punct(";") => return Some(k + 1),
                    Tree::Leaf(t) if t.is_punct("->") => in_ret = true,
                    Tree::Leaf(t) if t.is_ident("where") => in_ret = false,
                    tree if in_ret => {
                        if !ret.is_empty() {
                            ret.push(' ');
                        }
                        ret.push_str(&tree.flat_text());
                    }
                    _ => {}
                }
                k += 1;
            }
            let body = trees.get(k)?.group_trees()?.to_vec();
            let qualified = if impl_ctx.is_empty() {
                name.clone()
            } else {
                format!("{impl_ctx}::{name}")
            };
            model.funcs.push(Func {
                name,
                qualified,
                line: head.line,
                params,
                ret,
                body: body.clone(),
                cfg_test: in_test,
            });
            // Nested fns (rare) and test-mod fns live inside bodies too.
            walk_items(&body, impl_ctx, in_test, model);
            Some(k + 1)
        }
        "impl" => {
            // Find the body; the self type is the last path segment before
            // the brace (after `for` when present).
            let mut j = i + 1;
            let mut ty = String::new();
            while j < trees.len() {
                match &trees[j] {
                    Tree::Group {
                        delim: '{',
                        trees: body,
                        ..
                    } => {
                        walk_items(body, &ty, in_test, model);
                        return Some(j + 1);
                    }
                    Tree::Leaf(t) if t.kind == TokKind::Ident => match t.text.as_str() {
                        "for" => ty.clear(),
                        "where" => {}
                        _ => ty = t.text.clone(),
                    },
                    _ => {}
                }
                j += 1;
            }
            Some(j)
        }
        "mod" => {
            let mut j = i + 1;
            while j < trees.len() {
                if let Tree::Group {
                    delim: '{',
                    trees: body,
                    ..
                } = &trees[j]
                {
                    walk_items(body, impl_ctx, in_test, model);
                    return Some(j + 1);
                }
                if trees[j].as_leaf().is_some_and(|t| t.is_punct(";")) {
                    return Some(j + 1);
                }
                j += 1;
            }
            Some(j)
        }
        _ => None,
    }
}

/// Split a `(…)` parameter group on top-level commas.
fn parse_params(group: &Tree) -> Vec<Param> {
    let Some(trees) = group.group_trees() else {
        return Vec::new();
    };
    let mut params = Vec::new();
    for part in split_on(trees, ",") {
        if part.is_empty() {
            continue;
        }
        let mut name = String::new();
        let mut ty = String::new();
        let mut after_colon = false;
        for t in part {
            match t {
                Tree::Leaf(tok) if tok.is_punct(":") && !after_colon => after_colon = true,
                Tree::Leaf(tok)
                    if !after_colon
                        && name.is_empty()
                        && tok.kind == TokKind::Ident
                        && !matches!(tok.text.as_str(), "mut" | "ref") =>
                {
                    name = tok.text.clone();
                }
                tree if after_colon => {
                    if !ty.is_empty() {
                        ty.push(' ');
                    }
                    ty.push_str(&tree.flat_text());
                }
                _ => {}
            }
        }
        params.push(Param { name, ty });
    }
    params
}

/// Split a tree slice on a top-level punct (`,` or `;`).
pub fn split_on<'t>(trees: &'t [Tree], punct: &str) -> Vec<&'t [Tree]> {
    let mut parts = Vec::new();
    let mut start = 0;
    for (i, t) in trees.iter().enumerate() {
        if t.as_leaf().is_some_and(|tok| tok.is_punct(punct)) {
            parts.push(&trees[start..i]);
            start = i + 1;
        }
    }
    parts.push(&trees[start..]);
    parts
}

/// The launcher method names that define a kernel call site.
const LAUNCHERS: [&str; 3] = ["launch_tasks", "launch_warps", "memset"];

/// Find kernel call sites (recursively) in `trees`. A call site is
/// `. launcher (args)` — the leading `.` excludes declarations.
fn find_kernels(trees: &[Tree], in_func: &str, cfg_test: bool, out: &mut Vec<Kernel>) {
    for (i, t) in trees.iter().enumerate() {
        if let Tree::Group { trees: inner, .. } = t {
            find_kernels(inner, in_func, cfg_test, out);
            continue;
        }
        let Some(tok) = t.as_leaf() else { continue };
        if !LAUNCHERS.contains(&tok.text.as_str()) {
            continue;
        }
        let dotted = i > 0 && trees[i - 1].as_leaf().is_some_and(|p| p.is_punct("."));
        let Some(args) = trees.get(i + 1).filter(|a| a.is_group('(')) else {
            continue;
        };
        if !dotted {
            continue;
        }
        let arg_trees = args.group_trees().unwrap_or(&[]);
        let parts = split_on(arg_trees, ",");
        let name = parts.first().and_then(|p| match p {
            [Tree::Leaf(t)] if t.kind == TokKind::Str => Some(t.text.trim_matches('"').to_string()),
            _ => None,
        });
        // The closure is the last argument starting with `|`, `||`, or
        // `move`; its body is everything after the parameter bar.
        let body = parts.last().map(|p| closure_body(p)).unwrap_or_default();
        out.push(Kernel {
            name,
            launcher: tok.text.clone(),
            line: tok.line,
            in_func: in_func.to_string(),
            body,
            cfg_test,
        });
    }
}

/// Extract the body trees of a closure argument (`move |warp| { … }`,
/// `|warp| expr`, `|| …`). Empty when the argument is not a closure.
fn closure_body(part: &[Tree]) -> Vec<Tree> {
    let mut i = 0;
    if part
        .first()
        .and_then(|t| t.as_leaf())
        .is_some_and(|t| t.is_ident("move"))
    {
        i += 1;
    }
    match part.get(i).and_then(|t| t.as_leaf()) {
        Some(t) if t.is_punct("||") => {}
        Some(t) if t.is_punct("|") => {
            // Skip to the closing bar.
            i += 1;
            while i < part.len() && !part[i].as_leaf().is_some_and(|t| t.is_punct("|")) {
                i += 1;
            }
        }
        _ => return Vec::new(),
    }
    part[i + 1..].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functions_with_impl_context_and_params() {
        let m = parse_file(
            "impl DynGraph {\n  pub fn edges_exist(&self, pin: &ReadGuard, pairs: &[(u32,u32)]) -> Vec<bool> {\n    let x = 1;\n  }\n}\n",
        );
        assert_eq!(m.funcs.len(), 1);
        let f = &m.funcs[0];
        assert_eq!(f.qualified, "DynGraph::edges_exist");
        assert_eq!(f.line, 2);
        assert_eq!(f.params[1].name, "pin");
        assert!(f.params[1].ty.contains("ReadGuard"));
        assert!(f.ret.contains("Vec"));
    }

    #[test]
    fn trait_impl_takes_type_after_for() {
        let m =
            parse_file("impl GraphBackend for DynGraph { fn degree(&self, v: u32) -> u32 { 0 } }");
        assert_eq!(m.funcs[0].qualified, "DynGraph::degree");
    }

    #[test]
    fn kernels_are_extracted_with_names_and_bodies() {
        let m = parse_file(
            "fn go(dev: &Device) {\n  dev.launch_tasks(\"edge_insert\", n, |warp| {\n    warp.read_word(a);\n  });\n  dev.launch_warps(name, 1, |warp| warp.write_word(a, 1));\n}\n",
        );
        assert_eq!(m.kernels.len(), 2);
        assert_eq!(m.kernels[0].name.as_deref(), Some("edge_insert"));
        assert_eq!(m.kernels[0].line, 2);
        assert_eq!(m.kernels[0].in_func, "go");
        assert!(!m.kernels[0].body.is_empty());
        assert_eq!(m.kernels[1].name, None); // dynamic name → `<dynamic>`
        assert!(!m.kernels[1].body.is_empty());
    }

    #[test]
    fn declarations_are_not_call_sites() {
        let m = parse_file("pub fn launch_tasks(&self, name: &str, n: usize) { body() }");
        assert!(m.kernels.is_empty());
        assert_eq!(m.funcs[0].name, "launch_tasks");
    }

    #[test]
    fn cfg_test_marks_test_functions() {
        let m = parse_file(
            "#[cfg(test)]\nmod tests {\n  fn helper(dev: &Device) { dev.launch_tasks(\"t\", 1, |w| {}); }\n}\nfn real() {}\n",
        );
        let helper = m.funcs.iter().find(|f| f.name == "helper").unwrap();
        assert!(helper.cfg_test);
        assert!(!m.funcs.iter().find(|f| f.name == "real").unwrap().cfg_test);
        assert!(m.kernels[0].cfg_test);
    }
}
