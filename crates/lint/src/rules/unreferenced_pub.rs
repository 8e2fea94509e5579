//! Rule: `unreferenced-pub`.
//!
//! A `pub` item nothing calls is surface someone must still read, keep
//! compiling and keep documented. rustc's `dead_code` lint stops at the
//! crate boundary, so a `pub fn` in `ml` that no crate, test or example
//! names goes unnoticed. This rule looks across the whole workspace: a
//! plain `pub` fn/method, type, const, static, field, or variant of a
//! `pub` enum in non-test `crates/*/src` code (not `src/bin/`, not
//! `main.rs`) is *used* when an identifier token of the same name occurs
//! anywhere else in code — another file, or its own file's non-test code.
//! Comments, docs and string literals never count; `use` declarations
//! count only for the name an `as` renames, since the import itself is
//! not a use. A name collision counts as a use, so the rule can miss a
//! dead item but never invents one.
//!
//! What is left falls in three classes:
//! * **dead** — no use anywhere (a test in the item's own file only
//!   tests dead code): a finding, gated like every other rule;
//! * **test-only** — the only outside uses are test code (`#[cfg(test)]`,
//!   `tests/`, `benches/`, `examples/`);
//! * **harness-only** — the only uses outside test code are in the
//!   end-to-end benchmark (`benchmark/src` and `benchmark/tests`, which
//!   the workspace index reads but no rule lints).
//!
//! The last two never fail the gate; [`surface`] lists them in the
//! report's `surface` section.

use std::collections::{BTreeSet, HashMap};

use serde::Serialize;

use crate::lexer::{Tok, TokKind};
use crate::rules::{Context, Finding, Rule};
use crate::source::{matching_brace, FileKind, SourceFile};

pub struct UnreferencedPub;

pub const NAME: &str = "unreferenced-pub";

impl Rule for UnreferencedPub {
    fn name(&self) -> &'static str {
        NAME
    }

    fn description(&self) -> &'static str {
        "every `pub` item in crate sources is used somewhere outside its own tests"
    }

    fn check(&self, file: &SourceFile, ctx: &Context, out: &mut Vec<Finding>) {
        for (def, verdict, _) in classified(file, ctx) {
            if verdict == Verdict::Dead {
                out.push(Finding::new(
                    NAME,
                    file,
                    def.line,
                    format!(
                        "`pub {} {}` is used nowhere outside its own file's tests; \
                         delete it or narrow its visibility",
                        def.kind, def.item
                    ),
                ));
            }
        }
    }
}

/// Where one identifier occurrence sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Site {
    /// Non-test code of a linted file.
    Code,
    /// Test code: a `#[cfg(test)]` region, `tests/`, `benches/`, `examples/`.
    Test,
    /// The end-to-end benchmark.
    Harness,
}

#[derive(Debug)]
struct Occurrence {
    file: u32,
    tok: u32,
    site: Site,
}

/// Identifier name → every occurrence of it in code, over the linted
/// files plus the benchmark's.
#[derive(Debug, Default)]
pub struct UseIndex {
    files: Vec<String>,
    uses: HashMap<String, Vec<Occurrence>>,
}

impl UseIndex {
    /// Indexes `files` (the linted workspace) and `harness` (benchmark
    /// sources, indexed only).
    pub fn build(files: &[SourceFile], harness: &[SourceFile]) -> UseIndex {
        let mut index = UseIndex::default();
        for (file, is_harness) in files
            .iter()
            .map(|f| (f, false))
            .chain(harness.iter().map(|f| (f, true)))
        {
            let id = index.files.len() as u32;
            index.files.push(file.rel.clone());
            let toks = &file.tokens;
            let mut in_use = false;
            for (i, t) in toks.iter().enumerate() {
                if t.is_ident("use") {
                    in_use = true;
                } else if in_use && t.is_punct(';') {
                    in_use = false;
                }
                let renamed = toks.get(i + 1).is_some_and(|n| n.is_ident("as"));
                if t.kind != TokKind::Ident || (in_use && !renamed) {
                    continue;
                }
                let site = if is_harness {
                    Site::Harness
                } else if file.kind == FileKind::Example || file.is_test_line(t.line) {
                    Site::Test
                } else {
                    Site::Code
                };
                index
                    .uses
                    .entry(t.text.clone())
                    .or_default()
                    .push(Occurrence {
                        file: id,
                        tok: i as u32,
                        site,
                    });
            }
        }
        index
    }

    fn file_id(&self, rel: &str) -> Option<u32> {
        self.files.iter().position(|f| f == rel).map(|i| i as u32)
    }

    fn classify(&self, file: u32, def: &Def) -> (Verdict, BTreeSet<String>) {
        let mut harness = false;
        let mut tested = false;
        let mut used_in = BTreeSet::new();
        for o in self.uses.get(&def.name).into_iter().flatten() {
            if o.file == file && o.tok == def.tok {
                continue;
            }
            match o.site {
                Site::Code => return (Verdict::Used, BTreeSet::new()),
                Site::Harness => harness = true,
                Site::Test if o.file != file => tested = true,
                Site::Test => continue,
            }
            used_in.insert(self.files[o.file as usize].clone());
        }
        let verdict = if harness {
            Verdict::HarnessOnly
        } else if tested {
            Verdict::TestOnly
        } else {
            Verdict::Dead
        };
        (verdict, used_in)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Used,
    Dead,
    TestOnly,
    HarnessOnly,
}

/// One `pub` item reachable only from tests or from the benchmark.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct SurfaceItem {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// `Owner::name` for methods, fields and variants, else `name`.
    pub item: String,
    /// `fn`, `struct`, `field`, `variant`, …
    pub kind: String,
    /// Every file outside the defining one that names the item.
    pub used_in: Vec<String>,
}

/// The report's `surface` section, each list sorted.
#[derive(Debug, Default, Serialize)]
pub struct Surface {
    pub test_only: Vec<SurfaceItem>,
    pub harness_only: Vec<SurfaceItem>,
}

/// Every `pub` item of `files` whose uses are all in tests or all in the
/// benchmark.
pub fn surface(files: &[SourceFile], ctx: &Context) -> Surface {
    let mut out = Surface::default();
    for file in files {
        for (def, verdict, used_in) in classified(file, ctx) {
            let list = match verdict {
                Verdict::TestOnly => &mut out.test_only,
                Verdict::HarnessOnly => &mut out.harness_only,
                Verdict::Used | Verdict::Dead => continue,
            };
            list.push(SurfaceItem {
                file: file.rel.clone(),
                item: def.item,
                kind: def.kind.to_owned(),
                used_in: used_in.into_iter().collect(),
            });
        }
    }
    out.test_only.sort();
    out.harness_only.sort();
    out
}

fn classified(file: &SourceFile, ctx: &Context) -> Vec<(Def, Verdict, BTreeSet<String>)> {
    let Some(id) = ctx.uses.file_id(&file.rel) else {
        return Vec::new();
    };
    if !defines_surface(file) {
        return Vec::new();
    }
    definitions(file)
        .into_iter()
        .map(|def| {
            let (verdict, used_in) = ctx.uses.classify(id, &def);
            (def, verdict, used_in)
        })
        .collect()
}

/// Library code of a workspace crate: `crates/<name>/src`, minus
/// binaries.
fn defines_surface(file: &SourceFile) -> bool {
    file.kind == FileKind::Src
        && file.rel.starts_with("crates/")
        && !file.rel.contains("/src/bin/")
        && !file.rel.ends_with("/main.rs")
}

/// One `pub` definition.
#[derive(Debug)]
struct Def {
    name: String,
    item: String,
    kind: &'static str,
    tok: u32,
    line: u32,
}

const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "union",
];

/// The plain-`pub` items of one file, outside test code.
fn definitions(file: &SourceFile) -> Vec<Def> {
    let toks = &file.tokens;
    let owners = owner_blocks(toks);
    let owner_of = |at: usize| {
        owners
            .iter()
            .filter(|(open, close, _)| *open < at && at < *close)
            .max_by_key(|(open, _, _)| *open)
            .map(|(_, _, name)| name.as_str())
    };
    let mut defs = Vec::new();
    let mut push = |name_at: usize, kind: &'static str, owner: Option<&str>| {
        let name = &toks[name_at];
        if name.kind != TokKind::Ident || file.is_test_line(name.line) {
            return;
        }
        defs.push(Def {
            name: name.text.clone(),
            item: match owner {
                Some(o) => format!("{o}::{}", name.text),
                None => name.text.clone(),
            },
            kind,
            tok: name_at as u32,
            line: name.line,
        });
    };
    for i in 0..toks.len() {
        if !toks[i].is_ident("pub") || toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let mut j = i + 1;
        while toks.get(j).is_some_and(|t| {
            t.kind == TokKind::Str
                || ["unsafe", "async", "extern", "mut"].contains(&t.text.as_str())
                || (t.is_ident("const") && toks.get(j + 1).is_some_and(is_fn_qualifier))
        }) {
            j += 1;
        }
        let Some(kw) = toks.get(j) else { break };
        if j + 1 >= toks.len() {
            break;
        }
        if let Some(&kind) = ITEM_KEYWORDS.iter().find(|k| kw.is_ident(k)) {
            // A fn inside an impl or trait body is a method of its owner.
            let owner = owner_of(i).filter(|_| kind == "fn");
            push(j + 1, if owner.is_some() { "method" } else { kind }, owner);
            if kind == "enum" {
                for v in variants(toks, j + 1) {
                    push(v, "variant", Some(&toks[j + 1].text));
                }
            }
        } else if kw.kind == TokKind::Ident
            && toks[j + 1].is_punct(':')
            && !toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
        {
            push(j, "field", owner_of(i));
        }
    }
    defs
}

fn is_fn_qualifier(t: &Tok) -> bool {
    ["fn", "unsafe", "async", "extern"].contains(&t.text.as_str())
}

/// `(open brace, close brace, name)` of every `impl`, `struct`, `enum`,
/// `union` and `trait` body: the owner of a method or field is the
/// innermost one around it.
fn owner_blocks(toks: &[Tok]) -> Vec<(usize, usize, String)> {
    let mut blocks = Vec::new();
    for i in 0..toks.len() {
        let named = ["struct", "enum", "union", "trait"]
            .iter()
            .any(|k| toks[i].is_ident(k));
        if !named && !toks[i].is_ident("impl") {
            continue;
        }
        // A named item's owner is its name; an impl's is the last
        // identifier of its self type outside `<...>` (after `for`, when
        // it implements a trait). The body is the first `{` before any
        // `;` (a unit or tuple struct has none).
        let mut name = toks.get(i + 1).filter(|_| named).map(|t| t.text.as_str());
        let mut naming = !named;
        let mut angle = 0usize;
        let mut j = i + 1;
        while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
            let t = &toks[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !toks[j - 1].is_punct('-') {
                angle = angle.saturating_sub(1);
            } else if angle == 0 && t.is_ident("where") {
                naming = false;
            } else if naming && angle == 0 && t.kind == TokKind::Ident && !t.is_ident("for") {
                name = Some(&t.text);
            }
            j += 1;
        }
        let Some(name) = name else { continue };
        if toks.get(j).is_some_and(|t| t.is_punct('{')) {
            if let Some(close) = matching_brace(toks, j) {
                blocks.push((j, close, name.to_owned()));
            }
        }
    }
    blocks
}

/// Token indices of the variant names of the enum named at `name_at`.
fn variants(toks: &[Tok], name_at: usize) -> Vec<usize> {
    let Some(open) = (name_at..toks.len()).find(|&k| toks[k].is_punct('{')) else {
        return Vec::new();
    };
    let close = matching_brace(toks, open).unwrap_or(toks.len());
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut expect_name = true;
    // Attributes and payloads sit inside brackets: a name is the first
    // identifier at depth 0 after the `{` or a `,`.
    for (k, t) in toks.iter().enumerate().take(close).skip(open + 1) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.is_punct(',') {
            expect_name = true;
        } else if depth == 0 && expect_name && t.kind == TokKind::Ident {
            out.push(k);
            expect_name = false;
        }
    }
    out
}
