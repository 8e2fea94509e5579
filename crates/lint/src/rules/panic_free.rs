//! Rule: `panic-free-server-paths`.
//!
//! A panic on a long-lived server thread (wire reader/writer, executor,
//! retrain worker) silently kills that thread — the process stays up
//! while its capacity shrinks. Non-test code in `service`, `wire`,
//! `obs`, and `core`'s driver module must not call
//! `unwrap()`/`expect()`, invoke
//! `panic!`/`unreachable!`/`todo!`/`unimplemented!`, or index a
//! collection with a runtime value (use `.get()` or a justified allow).
//! `assert!` config validation is permitted: failing fast at startup is
//! the point. A `.lock().unwrap()` is a finding like any other unwrap:
//! the shim's locks return guards, so only a `std::sync` lock (itself a
//! `one-lock-type` finding) has a `Result` to unwrap.

use crate::lexer::{Tok, TokKind};
use crate::rules::{Context, Finding, Rule};
use crate::source::{FileKind, SourceFile};

pub struct PanicFree;

pub const NAME: &str = "panic-free-server-paths";

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that may directly precede `[` in type or macro position —
/// `&mut [u8]`, `dyn [..]` — and so do not indicate indexing.
const NON_INDEX_PRECEDERS: &[&str] = &[
    "mut", "dyn", "impl", "as", "in", "return", "break", "const", "static", "where", "else", "box",
    "ref", "move",
];

impl Rule for PanicFree {
    fn name(&self) -> &'static str {
        NAME
    }

    fn description(&self) -> &'static str {
        "no unwrap/expect/panic!/runtime indexing in non-test server code"
    }

    fn check(&self, file: &SourceFile, _ctx: &Context, out: &mut Vec<Finding>) {
        if !in_scope(file) {
            return;
        }
        let toks = &file.tokens;
        for i in 0..toks.len() {
            let t = &toks[i];
            if file.is_test_line(t.line) {
                continue;
            }
            if t.is_punct('.') {
                if let Some(m) = toks.get(i + 1) {
                    let is_unwrap = m.is_ident("unwrap")
                        && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
                        && toks.get(i + 3).is_some_and(|t| t.is_punct(')'));
                    let is_expect =
                        m.is_ident("expect") && toks.get(i + 2).is_some_and(|t| t.is_punct('('));
                    if is_unwrap || is_expect {
                        out.push(Finding::new(
                            NAME,
                            file,
                            m.line,
                            format!(
                                "`.{}(...)` can panic a server thread; propagate an error or \
                                 add a justified allow",
                                m.text
                            ),
                        ));
                    }
                }
            }
            // Panic-family macros.
            if t.kind == TokKind::Ident
                && PANIC_MACROS.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            {
                out.push(Finding::new(
                    NAME,
                    file,
                    t.line,
                    format!("`{}!` panics the calling thread", t.text),
                ));
            }
            // Runtime indexing: `expr[...]` where the bracket content is
            // not purely literal (`buf[0]`, `&h[1..5]` are infallible in
            // context and exempt).
            if t.is_punct('[') && is_index_position(toks, i) {
                if let Some(close) = matching_bracket(toks, i) {
                    if !content_is_literal(&toks[i + 1..close]) {
                        out.push(Finding::new(
                            NAME,
                            file,
                            t.line,
                            "indexing with a runtime value panics when out of bounds; use \
                             `.get(...)` or add a justified allow"
                                .to_owned(),
                        ));
                    }
                }
            }
        }
    }
}

fn in_scope(file: &SourceFile) -> bool {
    if file.kind != FileKind::Src {
        return false;
    }
    match file.crate_name.as_str() {
        "service" | "wire" | "obs" | "store" => true,
        "core" => file.rel.ends_with("src/driver.rs"),
        _ => false,
    }
}

/// Whether the `[` at `i` is indexing a value (vs a slice type, an
/// attribute, a macro like `vec![`, or an array literal).
fn is_index_position(toks: &[Tok], i: usize) -> bool {
    if i == 0 {
        return false;
    }
    let prev = &toks[i - 1];
    match prev.kind {
        TokKind::Ident => !NON_INDEX_PRECEDERS.contains(&prev.text.as_str()),
        TokKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
        _ => false,
    }
}

/// The index of the `]` matching the `[` at `open`.
fn matching_bracket(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Whether the bracket content is only numeric literals and range dots —
/// `[0]`, `[1..5]`, `[..4]` — which the surrounding code has already
/// bounds-checked by construction.
fn content_is_literal(content: &[Tok]) -> bool {
    !content.is_empty()
        && content
            .iter()
            .all(|t| t.kind == TokKind::Num || t.is_punct('.') || t.is_punct('='))
}
