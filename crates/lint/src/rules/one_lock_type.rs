//! Rule: `one-lock-type`.
//!
//! Every lock in the workspace is the vendored `parking_lot` shim's
//! `Mutex`, `RwLock` or `Condvar`, whose guards cannot poison: the shim
//! is the one place a panicked holder's lock is recovered. A `std::sync`
//! lock would bring back a `Result` to handle by hand at every call
//! site. The rule flags `std::sync::{Mutex, RwLock, Condvar}` in non-test
//! source, named in a `use` tree or as an inline `std::sync::X` path.

use crate::rules::shim_conformance::parse_use_tree;
use crate::rules::{Context, Finding, Rule};
use crate::source::{FileKind, SourceFile};

pub struct OneLockType;

pub const NAME: &str = "one-lock-type";

/// The `std::sync` types the shim replaces.
const STD_LOCKS: &[&str] = &["Mutex", "RwLock", "Condvar"];

impl Rule for OneLockType {
    fn name(&self) -> &'static str {
        NAME
    }

    fn description(&self) -> &'static str {
        "locks are the parking_lot shim's Mutex/RwLock/Condvar, never std::sync's"
    }

    fn check(&self, file: &SourceFile, _ctx: &Context, out: &mut Vec<Finding>) {
        if file.kind != FileKind::Src {
            return;
        }
        let toks = &file.tokens;
        let mut flag = |name: &str, line: u32| {
            if !file.is_test_line(line) {
                out.push(Finding::new(
                    NAME,
                    file,
                    line,
                    format!(
                        "`std::sync::{name}` is a poisoning std lock type; use \
                         `parking_lot::{name}`, which recovers from a panicking holder"
                    ),
                ));
            }
        };
        let mut i = 0;
        while i < toks.len() {
            if toks[i].is_ident("use") {
                let (leaves, first_segment, end) = parse_use_tree(toks, i + 1);
                if first_segment.as_deref() == Some("std") {
                    for leaf in leaves {
                        if leaf.module == "sync" && STD_LOCKS.contains(&leaf.name.as_str()) {
                            flag(&leaf.name, leaf.line);
                        }
                    }
                }
                i = end;
                continue;
            }
            // Inline `std::sync::X` (the lexer splits `::` into two `:`).
            if let Some(path) = toks.get(i..i + 7) {
                let text: Vec<&str> = path.iter().map(|t| t.text.as_str()).collect();
                if text[..6] == ["std", ":", ":", "sync", ":", ":"] && STD_LOCKS.contains(&text[6])
                {
                    flag(text[6], path[6].line);
                }
            }
            i += 1;
        }
    }
}
