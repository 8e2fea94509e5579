//! Rule: `shim-conformance`.
//!
//! The workspace is offline: `serde`, `parking_lot`, `proptest`, … are
//! vendored shims with a fraction of the real crates' surface. A `use`
//! of an item the shim doesn't export compiles in the author's head and
//! fails in CI — or worse, gets "fixed" by fattening the shim by
//! accident. This rule walks `vendor/*/src` once, collects every `pub`
//! item, `pub use` re-export, and `#[macro_export]` macro, then checks
//! that each `use <vendored-crate>::...` leaf in the workspace names a
//! collected export.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use crate::lexer::{lex, Tok, TokKind};
use crate::rules::{Context, Finding, Rule};
use crate::source::SourceFile;

pub struct ShimConformance;

pub const NAME: &str = "shim-conformance";

/// Path keywords that can open a use path without naming a crate.
const PATH_KEYWORDS: &[&str] = &["crate", "super", "self", "std", "alloc", "core"];

impl Rule for ShimConformance {
    fn name(&self) -> &'static str {
        NAME
    }

    fn description(&self) -> &'static str {
        "workspace `use` statements may only name items the vendored shims export"
    }

    fn check(&self, file: &SourceFile, ctx: &Context, out: &mut Vec<Finding>) {
        if ctx.vendor_exports.is_empty() {
            return;
        }
        let toks = &file.tokens;
        let mut i = 0;
        while i < toks.len() {
            if !toks[i].is_ident("use") {
                i += 1;
                continue;
            }
            let (leaves, first_segment, end) = parse_use_tree(toks, i + 1);
            i = end;
            let Some(first) = first_segment else { continue };
            if PATH_KEYWORDS.contains(&first.as_str()) {
                continue;
            }
            let Some(exports) = ctx.vendor_exports.get(&first) else {
                continue; // not a vendored crate: std or workspace path
            };
            for leaf in leaves {
                if leaf.name == first {
                    continue; // `use serde;` / `use serde::{self}`
                }
                if !exports.contains(&leaf.name) {
                    out.push(Finding::new(
                        NAME,
                        file,
                        leaf.line,
                        format!(
                            "`{}::{}` is not exported by the vendored `{}` shim \
                             (vendor/{}/src)",
                            first, leaf.name, first, first
                        ),
                    ));
                }
            }
        }
    }
}

/// One leaf of a use tree: the item actually imported.
#[derive(Debug)]
pub(super) struct Leaf {
    /// The item's name in the source crate (before any `as` alias).
    pub(super) name: String,
    /// The alias, when `as` renames it (`pub use` exports the alias).
    alias: Option<String>,
    /// The segment before the leaf (`sync` in `std::sync::{Arc, Mutex}`).
    pub(super) module: String,
    pub(super) line: u32,
}

/// Walks a use tree starting at `start` (just past `use`), returning its
/// leaves, the first path segment, and the index past the closing `;`.
pub(super) fn parse_use_tree(toks: &[Tok], start: usize) -> (Vec<Leaf>, Option<String>, usize) {
    let mut leaves = Vec::new();
    let mut first_segment: Option<String> = None;
    // Stack of "parent" segments: the ident before each `::{`, so that a
    // `self` leaf can resolve to its module.
    let mut parents: Vec<String> = Vec::new();
    let mut last_ident: Option<String> = None;
    let mut i = start;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct(';') {
            i += 1;
            break;
        }
        if t.is_punct('{') {
            parents.push(last_ident.clone().unwrap_or_default());
            last_ident = None;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            parents.pop();
            last_ident = None;
            i += 1;
            continue;
        }
        if t.kind == TokKind::Ident {
            if first_segment.is_none() && t.text != "pub" {
                first_segment = Some(t.text.clone());
            }
            // Leaf position: ident followed by `,` `}` `;` `as`.
            let next = toks.get(i + 1);
            let terminal = next.is_none_or(|n| {
                n.is_punct(',') || n.is_punct('}') || n.is_punct(';') || n.is_ident("as")
            });
            if t.text == "as" {
                i += 1;
                continue;
            }
            if terminal && t.text != "*" {
                let module = last_ident
                    .clone()
                    .or_else(|| parents.last().cloned())
                    .unwrap_or_default();
                let mut name = t.text.clone();
                if name == "self" {
                    name = module.clone();
                }
                let mut alias = None;
                if next.is_some_and(|n| n.is_ident("as")) {
                    alias = toks.get(i + 2).map(|a| a.text.clone());
                    i += 2;
                }
                if !name.is_empty() {
                    leaves.push(Leaf {
                        name,
                        alias,
                        module,
                        line: t.line,
                    });
                }
                last_ident = None; // the next leaf's module is its own path's
            } else {
                last_ident = Some(t.text.clone());
            }
        }
        i += 1;
    }
    (leaves, first_segment, i)
}

/// Scans `vendor/*/src/**/*.rs`, building crate → exported item names.
/// Collected: `pub fn|struct|enum|trait|const|static|type|mod|union`,
/// `pub use` leaves (the alias when renamed), `#[macro_export]`
/// `macro_rules!` names. `pub(crate)`-style restricted visibility is
/// not an export and is skipped.
pub fn collect_vendor_exports(vendor_dir: &Path) -> BTreeMap<String, BTreeSet<String>> {
    let mut map = BTreeMap::new();
    let Ok(entries) = fs::read_dir(vendor_dir) else {
        return map;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if !path.is_dir() {
            continue;
        }
        let Some(dir_name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let crate_name = dir_name.replace('-', "_");
        let mut exports = BTreeSet::new();
        collect_dir(&path.join("src"), &mut exports);
        if !exports.is_empty() {
            map.insert(crate_name, exports);
        }
    }
    map
}

fn collect_dir(dir: &Path, exports: &mut BTreeSet<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_dir(&path, exports);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(src) = fs::read_to_string(&path) {
                collect_file_exports(&src, exports);
            }
        }
    }
}

/// Item keywords whose following ident is the exported name.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "union", "macro",
];

fn collect_file_exports(src: &str, exports: &mut BTreeSet<String>) {
    let toks = lex(src).tokens;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        // `#[macro_export] macro_rules! name`
        if t.is_ident("macro_rules")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            && has_macro_export_before(&toks, i)
        {
            if let Some(name) = toks.get(i + 2) {
                if name.kind == TokKind::Ident {
                    exports.insert(name.text.clone());
                }
            }
            i += 3;
            continue;
        }
        if !t.is_ident("pub") {
            i += 1;
            continue;
        }
        // Restricted visibility `pub(crate)` / `pub(super)` is internal.
        if toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            i += 2;
            continue;
        }
        let mut j = i + 1;
        // Skip qualifiers between `pub` and the item keyword.
        while toks.get(j).is_some_and(|t| {
            t.is_ident("unsafe")
                || t.is_ident("async")
                || t.is_ident("extern")
                || t.is_ident("mut")
                || t.kind == TokKind::Str
        }) {
            j += 1;
        }
        let Some(kw) = toks.get(j) else { break };
        if kw.is_ident("use") {
            let (leaves, _, end) = parse_use_tree(&toks, j + 1);
            for leaf in leaves {
                let name = leaf.alias.unwrap_or(leaf.name);
                if !name.is_empty() && name != "*" {
                    exports.insert(name);
                }
            }
            i = end;
            continue;
        }
        if ITEM_KEYWORDS.contains(&kw.text.as_str()) {
            if let Some(name) = toks.get(j + 1) {
                if name.kind == TokKind::Ident {
                    exports.insert(name.text.clone());
                }
            }
        }
        i = j + 1;
    }
}

/// Whether an `#[macro_export]` attribute appears shortly before `i`.
fn has_macro_export_before(toks: &[Tok], i: usize) -> bool {
    let lo = i.saturating_sub(8);
    toks[lo..i].iter().any(|t| t.is_ident("macro_export"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;

    fn exports_of(src: &str) -> BTreeSet<String> {
        let mut set = BTreeSet::new();
        collect_file_exports(src, &mut set);
        set
    }

    #[test]
    fn collects_pub_items_and_reexports() {
        let set = exports_of(
            "pub fn to_string() {}\n\
             pub struct Value;\n\
             pub(crate) fn internal() {}\n\
             pub use inner::{Foo, Bar as Baz};\n\
             #[macro_export]\nmacro_rules! proptest { () => {} }\n\
             fn private() {}\n",
        );
        assert!(set.contains("to_string"));
        assert!(set.contains("Value"));
        assert!(set.contains("Foo"));
        assert!(set.contains("Baz"));
        assert!(!set.contains("Bar"));
        assert!(set.contains("proptest"));
        assert!(!set.contains("internal"));
        assert!(!set.contains("private"));
    }

    #[test]
    fn flags_fantasy_imports_only() {
        let mut ctx = Context::default();
        let mut serde = BTreeSet::new();
        serde.insert("Serialize".to_owned());
        serde.insert("Value".to_owned());
        ctx.vendor_exports.insert("serde".to_owned(), serde);

        let file = SourceFile::parse_str(
            "crates/x/src/lib.rs",
            "x",
            FileKind::Src,
            "use serde::{Serialize, DeserializeOwned};\n\
             use std::collections::HashMap;\n\
             use serde::Value as V;\n",
        );
        let mut out = Vec::new();
        ShimConformance.check(&file, &ctx, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("DeserializeOwned"));
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn self_and_glob_leaves() {
        let mut ctx = Context::default();
        let mut serde = BTreeSet::new();
        serde.insert("ser".to_owned());
        ctx.vendor_exports.insert("serde".to_owned(), serde);
        let file = SourceFile::parse_str(
            "crates/x/src/lib.rs",
            "x",
            FileKind::Src,
            "use serde::ser::{self};\nuse serde::*;\nuse serde;\n",
        );
        let mut out = Vec::new();
        ShimConformance.check(&file, &ctx, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
