//! The lint rules, R1, R2 and R9, evaluated over the parsed file models
//! and effect summaries.
//!
//! R2 is a token-sequence rule; R1 reads kernel effect summaries; R9 is
//! the cross-kernel check that guards the publication protocol:
//! - **R9 `publication-order`** — cross-kernel word classes (keyed by the
//!   named constants in their address expressions, e.g. `NEXT_LANE`)
//!   written in one kernel and read in a concurrently-running pinned
//!   reader kernel must be published atomically (`atomic_cas` /
//!   `atomic_exchange` / RMW — the simulator models atomics as
//!   release+acquire); a plain `write_word`-family store to such a word
//!   is exactly the class of publication race the sanitizer catches
//!   dynamically.
//!
//! The pin and era protocols need no rule: `slabgraph` launches only
//! through `DynGraph::pinned` (which borrows a live `ReadGuard`) and
//! `DynGraph::batch` (which advances the era once after its launches),
//! and `clippy.toml` disallows every other launch or advance.

use super::effects::{effects_of, AccessKind, EffectIndex, Effects};
use super::parser::{Func, Kernel, Tree};

/// Rule metadata.
pub struct RuleMeta {
    pub id: &'static str,
    pub name: &'static str,
    pub desc: &'static str,
}

pub const RULES: [RuleMeta; 3] = [
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
        id: "R9",
        name: "publication-order",
        desc: "word class written non-atomically in one kernel but read by a pinned reader kernel; publish with atomic_cas/atomic_exchange",
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

/// Guard-carrying types: a function taking one is a pinned reader (R9).
fn is_guard_type(ty: &str) -> bool {
    ty.contains("ReadGuard") || ty.contains("ReadPin")
}

// ---- shared tree helpers --------------------------------------------------

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

// ---- the pass -------------------------------------------------------------

/// Run every rule over the scanned files. `index` carries the
/// workspace-wide effect summaries for cross-kernel (R9) analysis.
pub fn run_rules(files: &[ScannedFile], index: &EffectIndex) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        token_rules(file, &mut findings);
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

/// R2: a whole-file token-sequence rule; R1: a per-kernel rule. Neither
/// applies inside gpu-sim, which owns the arena and the atomics.
fn token_rules(file: &ScannedFile, findings: &mut Vec<Finding>) {
    if in_gpu_sim(&file.path) {
        return;
    }
    token_walk(&file.trees, &mut |trees, i| {
        let Some(tok) = trees[i].as_leaf() else {
            return;
        };
        // R2: `Ordering::Relaxed` outside gpu-sim.
        if tok.is_ident("Ordering")
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
    // R1: host transfers lexically inside the launch closure.
    for k in &file.model.kernels {
        for (method, line) in effects_of(&k.body).host_calls {
            push(
                findings,
                file,
                "R1",
                line,
                k.name.as_deref().unwrap_or("<dynamic>"),
                &k.in_func,
                format!(
                    "host transfer `{method}` inside a kernel closure (uncharged, not racechecked)"
                ),
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
