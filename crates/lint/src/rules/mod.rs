//! The rule engine's rule set.
//!
//! Each rule is a stateless pass over one [`SourceFile`]'s token stream
//! (`unreferenced-pub` also reads the workspace's [`UseIndex`]).
//! Rules emit [`Finding`]s without consulting the allowlist — the engine
//! applies `lint:allow` directives afterwards so that every suppressed
//! finding still appears (flagged `allowed`) in the JSON report.

mod bounded_channels;
mod guard_across_blocking;
mod loop_thread_nonblocking;
mod one_lock_type;
mod panic_free;
mod shim_conformance;
mod unreferenced_pub;

use std::collections::{BTreeMap, BTreeSet};

use serde::Serialize;

use crate::source::SourceFile;

pub use shim_conformance::collect_vendor_exports;
pub use unreferenced_pub::{surface, Surface, SurfaceItem, UseIndex};

/// One finding, before or after allowlist application.
#[derive(Debug, Clone, Serialize)]
pub struct Finding {
    /// The rule that fired.
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// Whether a `lint:allow` directive covers this finding.
    pub allowed: bool,
    /// The directive's reason, when allowed.
    pub reason: String,
}

impl Finding {
    pub(crate) fn new(rule: &str, file: &SourceFile, line: u32, message: String) -> Finding {
        Finding {
            rule: rule.to_owned(),
            file: file.rel.clone(),
            line,
            message,
            allowed: false,
            reason: String::new(),
        }
    }
}

/// Workspace-level facts shared by all rules.
#[derive(Debug, Default)]
pub struct Context {
    /// `vendor/<crate>` → the set of item names its sources `pub`-export.
    pub vendor_exports: BTreeMap<String, BTreeSet<String>>,
    /// Identifier → where it occurs, across the workspace and the
    /// benchmark.
    pub uses: UseIndex,
}

/// One lint rule.
pub trait Rule {
    /// The kebab-case name `lint:allow` directives use.
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules` and the README.
    fn description(&self) -> &'static str;
    /// Scans one file, appending findings.
    fn check(&self, file: &SourceFile, ctx: &Context, out: &mut Vec<Finding>);
}

/// The full rule set, in report order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(guard_across_blocking::GuardAcrossBlocking),
        Box::new(panic_free::PanicFree),
        Box::new(one_lock_type::OneLockType),
        Box::new(bounded_channels::BoundedChannels),
        Box::new(shim_conformance::ShimConformance),
        Box::new(loop_thread_nonblocking::LoopThreadNonblocking),
        Box::new(unreferenced_pub::UnreferencedPub),
    ]
}

/// Whether `name` is a known rule (used to validate allow directives).
pub fn is_known_rule(name: &str) -> bool {
    name == "malformed-allow" || all_rules().iter().any(|r| r.name() == name)
}
