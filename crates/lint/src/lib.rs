//! smartpick-lint: a workspace-aware static analyzer for smartpickd's
//! concurrency and panic-safety invariants, and for dead surface.
//!
//! The serving stack's correctness rests on invariants no type system
//! checks: lock guards never live across blocking I/O, poisoned mutexes
//! are recovered with `into_inner()`, server threads have no panic
//! paths, channels in long-lived state are bounded, and — because the
//! build is offline against vendored shims — `use` statements only name
//! items the shims actually export. Its size rests on one more: every
//! `pub` item in a crate's sources is used by something other than its
//! own tests (`unreferenced-pub`, which also lists the items only tests
//! or the end-to-end benchmark use). This crate lexes the workspace's
//! Rust sources with a small total lexer (no rustc, no syn), models each
//! file as a token stream with test-region and allowlist metadata, and
//! runs a fixed rule set over it.
//!
//! Three front doors:
//! * the `smartpick-lint` binary (human + JSON output, non-zero exit on
//!   unallowed findings),
//! * the tier-1 test `crates/lint/tests/workspace_gate.rs`, which fails
//!   the ordinary `cargo test` run on any unallowed finding,
//! * `just lint-smartpick`, wired into CI as its own job.
//!
//! Findings are suppressed per-site with
//! `// lint:allow(<rule>, reason = "...")` — the reason is mandatory and
//! survives into `lint-report.json`.

pub mod allow;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod source;

pub use engine::{load_workspace, run, run_file, LintReport, Workspace};
pub use rules::{all_rules, Finding};

use std::path::{Path, PathBuf};

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_owned());
            }
        }
        dir = d.parent();
    }
    None
}
