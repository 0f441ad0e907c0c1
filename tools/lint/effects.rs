//! Per-kernel effect summaries.
//!
//! For every extracted kernel (and every host function, so effects can be
//! folded through helper calls) this pass computes what the code *does* to
//! the device: arena words read and written through the `Warp` accessors,
//! atomic RMWs, uncharged host transfers (`Device::upload` / `host_write`
//! / …), allocator calls, pin/guard uses, and `std::sync::atomic`
//! orderings.
//!
//! ## Address keys
//!
//! Static analysis cannot resolve device addresses, so accesses are keyed
//! by the *shape* of their address expression:
//!
//! - **Const class** — the set of SCREAMING_CASE constants appearing in
//!   the expression (`slab_addr + NEXT_LANE as u32` → `{NEXT_LANE}`).
//!   These name protocol words (next pointers, sentinels) and are
//!   comparable across kernels — the publication-order rule (R9) pairs
//!   writers and readers on them.
//! - **Base class** — otherwise, the first identifier (`src_buf + base` →
//!   `src_buf`), comparable only within one function.
//!
//! The abstraction is deliberately coarse: it cannot alias two differently
//! named buffers, and it treats every occurrence of a protocol constant as
//! the same word class. Both coarsenings are *conservative for R9* (more
//! pairings checked, not fewer).

use super::parser::{split_on, FileModel, Tree};
use std::collections::{BTreeMap, BTreeSet};

/// How an access touches its word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessKind {
    /// `read_word` / `read_slab` / `read_lanes`.
    Read,
    /// `write_word` / `write_slab` / `write_lanes` (plus `memset`).
    Write,
    /// `atomic_add` / `atomic_sub` / `atomic_or` / `atomic_and`.
    AtomicRmw,
    /// `atomic_cas` / `atomic_cas_pair` — a release publication when it
    /// installs a pointer or a ⟨key, value⟩ pair.
    Cas,
    /// `atomic_exchange` — an unconditional release store.
    Exchange,
}

impl AccessKind {
    pub fn as_str(self) -> &'static str {
        match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::AtomicRmw => "rmw",
            AccessKind::Cas => "cas",
            AccessKind::Exchange => "exchange",
        }
    }
}

/// One memory access in a kernel body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemAccess {
    pub kind: AccessKind,
    /// `const:NEXT_LANE` or `base:src_buf` (see module docs).
    pub key: String,
    pub line: u32,
    /// The accessor method (`read_word`, `atomic_cas`, …).
    pub method: String,
}

/// The effect summary of one kernel or host function.
#[derive(Debug, Clone, Default)]
pub struct Effects {
    pub accesses: Vec<MemAccess>,
    /// Uncharged host-transfer calls (method, line) — R1's domain when
    /// they sit in a kernel body.
    pub host_calls: Vec<(String, u32)>,
    /// Slab-allocator calls (`allocate` / `try_allocate` / `free`), with
    /// lines.
    pub alloc_calls: Vec<(String, u32)>,
    /// Pin-protocol calls (`pin` / `pin_read`), with lines.
    pub pin_calls: Vec<(String, u32)>,
    /// `Ordering::X` mentions (ordering name, line) — R2's domain.
    pub orderings: Vec<(String, u32)>,
    /// Names called with `(…)` — the call-graph edges used to fold helper
    /// effects into kernels.
    pub calls: BTreeSet<String>,
}

const READERS: [&str; 3] = ["read_word", "read_slab", "read_lanes"];
const WRITERS: [&str; 3] = ["write_word", "write_slab", "write_lanes"];
const RMWS: [&str; 4] = ["atomic_add", "atomic_sub", "atomic_or", "atomic_and"];
/// `Device`'s uncharged host-transfer API.
const HOST_TRANSFERS: [&str; 5] = [
    "upload",
    "try_upload",
    "host_write",
    "host_read",
    "host_atomic_and",
];
const ALLOC_CALLS: [&str; 3] = ["allocate", "try_allocate", "free"];
const PIN_CALLS: [&str; 2] = ["pin", "pin_read"];

/// Compute the effect summary of a tree slice (a kernel body or a function
/// body).
pub fn effects_of(trees: &[Tree]) -> Effects {
    let mut fx = Effects::default();
    collect(trees, &mut fx);
    fx
}

fn collect(trees: &[Tree], fx: &mut Effects) {
    for (i, t) in trees.iter().enumerate() {
        if let Tree::Group { trees: inner, .. } = t {
            collect(inner, fx);
            continue;
        }
        let Some(tok) = t.as_leaf() else { continue };
        let name = tok.text.as_str();
        let dotted = i > 0 && trees[i - 1].as_leaf().is_some_and(|p| p.is_punct("."));
        let pathed = i > 0 && trees[i - 1].as_leaf().is_some_and(|p| p.is_punct("::"));
        let called = trees.get(i + 1).is_some_and(|n| n.is_group('('));
        let declared = i > 0 && trees[i - 1].as_leaf().is_some_and(|p| p.is_ident("fn"));

        // `Ordering::X` — R2's token pattern, wherever it appears.
        if name == "Ordering" {
            if let (Some(sep), Some(which)) = (trees.get(i + 1), trees.get(i + 2)) {
                if sep.as_leaf().is_some_and(|s| s.is_punct("::")) {
                    if let Some(ord) = which.as_leaf() {
                        fx.orderings.push((ord.text.clone(), ord.line));
                    }
                }
            }
        }

        if !called || declared {
            continue;
        }
        let args = trees[i + 1].group_trees().unwrap_or(&[]);

        if dotted && HOST_TRANSFERS.contains(&name) {
            fx.host_calls.push((name.to_string(), tok.line));
            continue;
        }

        if dotted && READERS.contains(&name) {
            fx.accesses.push(access(AccessKind::Read, name, tok, args));
        } else if dotted && WRITERS.contains(&name) {
            fx.accesses.push(access(AccessKind::Write, name, tok, args));
        } else if dotted && RMWS.contains(&name) {
            fx.accesses
                .push(access(AccessKind::AtomicRmw, name, tok, args));
        } else if dotted && (name == "atomic_cas" || name == "atomic_cas_pair") {
            fx.accesses.push(access(AccessKind::Cas, name, tok, args));
        } else if dotted && name == "atomic_exchange" {
            fx.accesses
                .push(access(AccessKind::Exchange, name, tok, args));
        } else if ALLOC_CALLS.contains(&name) && (dotted || pathed) {
            fx.alloc_calls.push((name.to_string(), tok.line));
        } else if PIN_CALLS.contains(&name) {
            fx.pin_calls.push((name.to_string(), tok.line));
        }

        // Record the call edge for helper-effect folding, skipping
        // obvious non-functions (macro bangs are lexed as `!` before `(`,
        // so `vec!(…)` never lands here; `name!(…)` has `!` between).
        fx.calls.insert(name.to_string());
    }
}

fn access(kind: AccessKind, method: &str, tok: &super::lexer::Tok, args: &[Tree]) -> MemAccess {
    let addr = split_on(args, ",").first().copied().unwrap_or(&[]).to_vec();
    MemAccess {
        kind,
        key: addr_key(&addr),
        line: tok.line,
        method: method.to_string(),
    }
}

/// Derive the address key of an address expression (see module docs).
pub fn addr_key(trees: &[Tree]) -> String {
    let mut consts = BTreeSet::new();
    let mut base = String::new();
    collect_idents(trees, &mut consts, &mut base);
    if !consts.is_empty() {
        format!("const:{}", consts.into_iter().collect::<Vec<_>>().join("+"))
    } else if base.is_empty() {
        "opaque".to_string()
    } else {
        format!("base:{base}")
    }
}

fn collect_idents(trees: &[Tree], consts: &mut BTreeSet<String>, base: &mut String) {
    for t in trees {
        match t {
            Tree::Group { trees: inner, .. } => collect_idents(inner, consts, base),
            Tree::Leaf(tok) if tok.kind == super::lexer::TokKind::Ident => {
                let text = &tok.text;
                let screaming = text.len() > 1
                    && text
                        .chars()
                        .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
                    && text.chars().any(|c| c.is_ascii_uppercase());
                if screaming {
                    consts.insert(text.clone());
                } else if base.is_empty() && text != "as" && text != "usize" && text != "u32" {
                    *base = text.clone();
                }
            }
            _ => {}
        }
    }
}

/// Fold helper-call effects into each kernel: the kernel's transitive
/// summary is its direct effects plus the effects of every function it
/// (transitively) calls, resolved by simple name. Name collisions merge
/// conservatively — a union over same-named functions.
pub struct EffectIndex {
    /// Direct effects per function simple name (merged across collisions).
    pub by_func: BTreeMap<String, Effects>,
}

impl EffectIndex {
    pub fn build(models: &[(String, FileModel)]) -> EffectIndex {
        let mut by_func: BTreeMap<String, Effects> = BTreeMap::new();
        for (path, model) in models {
            // Test code never runs inside a production kernel, and with
            // name-keyed edges a test helper (say, one named `snapshot`)
            // would splice unrelated production functions together.
            let test_file = path.starts_with("tests/");
            for f in &model.funcs {
                if f.cfg_test || test_file {
                    continue;
                }
                let fx = effects_of(&f.body);
                merge(by_func.entry(f.name.clone()).or_default(), &fx);
            }
        }
        EffectIndex { by_func }
    }

    /// Transitive effects of `direct`: its own effects plus those of every
    /// function within `depth` call hops of it.
    pub fn transitive(&self, direct: &Effects, depth: usize) -> Effects {
        let mut out = direct.clone();
        for fx in self.reachable(&direct.calls, depth) {
            merge(&mut out, fx);
        }
        out
    }

    /// The indexed functions within `depth` hops of `calls`, each once.
    /// Expansion is breadth-first, so every function is expanded at its
    /// shallowest depth and the result does not depend on the order in
    /// which callers are visited.
    fn reachable(&self, calls: &BTreeSet<String>, depth: usize) -> Vec<&Effects> {
        let mut seen = BTreeSet::new();
        let mut frontier: Vec<&String> = calls.iter().collect();
        let mut out = Vec::new();
        for _ in 0..depth {
            let mut next = Vec::new();
            for callee in frontier {
                if !seen.insert(callee) {
                    continue;
                }
                if let Some(fx) = self.by_func.get(callee) {
                    out.push(fx);
                    next.extend(&fx.calls);
                }
            }
            frontier = next;
        }
        out
    }
}

fn merge(into: &mut Effects, from: &Effects) {
    into.accesses.extend(from.accesses.iter().cloned());
    into.host_calls.extend(from.host_calls.iter().cloned());
    into.alloc_calls.extend(from.alloc_calls.iter().cloned());
    into.pin_calls.extend(from.pin_calls.iter().cloned());
    into.orderings.extend(from.orderings.iter().cloned());
    into.calls.extend(from.calls.iter().cloned());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::parser::parse_file;

    #[test]
    fn kernel_accesses_are_classified_and_keyed() {
        let m = parse_file(
            "fn go(dev: &Device) {\n  dev.launch_warps(\"k\", 1, |warp| {\n    let w = warp.read_word(p + NEXT_LANE as u32);\n    warp.write_word(out_buf + base, 1);\n    warp.atomic_cas(slab_addr + NEXT_LANE as u32, NULL_ADDR, fresh);\n    warp.atomic_add(count_addr, n);\n    warp.atomic_cas_pair(slot_addr + lane, seen, [key, value]);\n  });\n}\n",
        );
        let fx = effects_of(&m.kernels[0].body);
        assert_eq!(fx.accesses.len(), 5);
        assert_eq!(fx.accesses[0].kind, AccessKind::Read);
        assert_eq!(fx.accesses[0].key, "const:NEXT_LANE");
        assert_eq!(fx.accesses[1].kind, AccessKind::Write);
        assert_eq!(fx.accesses[1].key, "base:out_buf");
        assert_eq!(fx.accesses[2].kind, AccessKind::Cas);
        // The key derives from the *address* argument only (the CAS
        // expected/new values don't name the word being published).
        assert_eq!(fx.accesses[2].key, "const:NEXT_LANE");
        assert_eq!(fx.accesses[3].kind, AccessKind::AtomicRmw);
        assert_eq!(fx.accesses[3].line, 6);
        assert_eq!(fx.accesses[4].kind, AccessKind::Cas);
        assert_eq!(fx.accesses[4].key, "base:slot_addr");
    }

    #[test]
    fn host_transfers_and_orderings_and_calls() {
        let m = parse_file(
            "fn stage(&self) {\n  self.dev.host_write(a, &[0]);\n  self.allocated.fetch_add(1, Ordering::Relaxed);\n  self.dict.desc(warp, v);\n}\n",
        );
        let fx = effects_of(&m.funcs[0].body);
        assert_eq!(fx.host_calls, vec![("host_write".to_string(), 2)]);
        assert!(!fx.calls.contains("host_write"), "not a call-graph edge");
        assert_eq!(fx.orderings, vec![("Relaxed".to_string(), 3)]);
        assert!(fx.calls.contains("desc"));
        // `fetch_add` on a std atomic is NOT an arena access.
        assert!(fx.accesses.is_empty());
    }

    #[test]
    fn transitive_effects_fold_helper_calls() {
        let models = vec![(
            "f.rs".to_string(),
            parse_file(
                "fn helper(warp: &Warp) { warp.read_word(p + NEXT_LANE as u32); }\nfn outer(dev: &Device) { dev.launch_warps(\"k\", 1, |warp| { helper(warp); }); }\n",
            ),
        )];
        let idx = EffectIndex::build(&models);
        let direct = effects_of(&models[0].1.kernels[0].body);
        assert!(direct.accesses.is_empty());
        let trans = idx.transitive(&direct, 8);
        assert_eq!(trans.accesses.len(), 1);
        assert_eq!(trans.accesses[0].key, "const:NEXT_LANE");
    }

    #[test]
    fn reachability_follows_the_call_graph() {
        let models = vec![(
            "f.rs".to_string(),
            parse_file(
                "fn inner(w: &Warp) { w.read_word(p + NEXT_LANE as u32); }\nfn mid(w: &Warp) { inner(w); }\nfn entry(w: &Warp) { mid(w); }\nfn stray(w: &Warp) { noop(); }\n",
            ),
        )];
        let idx = EffectIndex::build(&models);
        let body = |name: &str| {
            let f = models[0].1.funcs.iter().find(|f| f.name == name).unwrap();
            effects_of(&f.body)
        };
        assert_eq!(idx.transitive(&body("entry"), 2).accesses.len(), 1);
        assert!(idx.transitive(&body("entry"), 1).accesses.is_empty());
        assert!(idx.transitive(&body("stray"), 8).accesses.is_empty());
    }

    /// A helper reachable both directly (hop 1) and through `mid` (hop 2,
    /// the depth limit) folds identically whichever caller sorts first:
    /// the helper's own callee is one hop past the shallow path, so a fold
    /// that expands the helper first at the depth limit would miss it.
    #[test]
    fn fold_is_independent_of_caller_order() {
        for mid in ["aa_mid", "zz_mid"] {
            let src = format!(
                "fn leaf(warp: &Warp) {{ warp.read_word(p + NEXT_LANE as u32); }}\n\
                 fn helper(warp: &Warp) {{ leaf(warp); }}\n\
                 fn {mid}(warp: &Warp) {{ helper(warp); }}\n\
                 fn entry(dev: &Device) {{ dev.launch_warps(\"k\", 1, |warp| {{ {mid}(warp); helper(warp); }}); }}\n"
            );
            let models = vec![("f.rs".to_string(), parse_file(&src))];
            let idx = EffectIndex::build(&models);
            let kernel = effects_of(&models[0].1.kernels[0].body);
            let trans = idx.transitive(&kernel, 2);
            let keys: Vec<&str> = trans.accesses.iter().map(|a| a.key.as_str()).collect();
            assert_eq!(keys, ["const:NEXT_LANE"], "caller {mid}");
        }
    }
}
