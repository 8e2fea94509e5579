//! Workspace loading and the rule engine.
//!
//! [`load_workspace`] walks the repo's own targets (root `src`/`tests`/
//! `examples` plus every `crates/*` member), skipping `vendor/`,
//! `target/`, and lint fixtures; `benchmark/src` and `benchmark/tests`
//! are read into the identifier index only. [`run`] applies every rule
//! to every file, then applies the allowlist: suppressed findings stay
//! in the report flagged `allowed` (with the directive's reason), so the
//! JSON artifact records *why* each exception exists. A directive that
//! is malformed or names an unknown rule is itself a finding — a typo
//! can never silently open a hole in the gate.

use std::fs;
use std::path::{Path, PathBuf};

use serde::Serialize;

use crate::rules::{
    all_rules, collect_vendor_exports, is_known_rule, surface, Context, Finding, Surface, UseIndex,
};
use crate::source::{FileKind, SourceFile};

/// The loaded workspace: all analyzable files plus shared context.
pub struct Workspace {
    /// Workspace root (the directory holding the top-level Cargo.toml).
    pub root: PathBuf,
    /// Every analyzable source file.
    pub files: Vec<SourceFile>,
    /// Facts shared across rules (vendor exports, identifier index).
    pub ctx: Context,
}

/// A package's target directories.
const TARGETS: [(&str, FileKind); 4] = [
    ("src", FileKind::Src),
    ("tests", FileKind::Test),
    ("benches", FileKind::Bench),
    ("examples", FileKind::Example),
];

/// Loads every analyzable `.rs` file under `root`.
pub fn load_workspace(root: &Path) -> std::io::Result<Workspace> {
    let mut files = Vec::new();
    // Root package targets.
    for (dir, kind) in TARGETS {
        load_dir(root, &root.join(dir), "smartpick", kind, &mut files);
    }
    // Workspace members under crates/.
    let crates_dir = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        let mut members: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        members.sort();
        for member in members {
            if !member.is_dir() {
                continue;
            }
            let Some(name) = member.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let name = name.to_owned();
            for (dir, kind) in TARGETS {
                load_dir(root, &member.join(dir), &name, kind, &mut files);
            }
        }
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    // The end-to-end benchmark (`benchmark/src`, `benchmark/tests`) is a
    // package of its own: indexed so its calls count as uses, never linted.
    let bench = root.join("benchmark");
    let mut harness = Vec::new();
    for (dir, kind) in TARGETS {
        load_dir(root, &bench.join(dir), "benchmark", kind, &mut harness);
    }
    let ctx = Context {
        vendor_exports: collect_vendor_exports(&root.join("vendor")),
        uses: UseIndex::build(&files, &harness),
    };
    Ok(Workspace {
        root: root.to_owned(),
        files,
        ctx,
    })
}

fn load_dir(root: &Path, dir: &Path, crate_name: &str, kind: FileKind, out: &mut Vec<SourceFile>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            load_dir(root, &path, crate_name, kind, out);
            continue;
        }
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        // The lint crate's own rule fixtures are violations on purpose.
        if rel.contains("/fixtures/") {
            continue;
        }
        let Ok(content) = fs::read_to_string(&path) else {
            continue;
        };
        out.push(SourceFile::parse(
            path,
            rel,
            crate_name.to_owned(),
            kind,
            &content,
        ));
    }
}

/// Per-rule finding counts in the report summary.
#[derive(Debug, Clone, Serialize)]
pub struct RuleCount {
    pub rule: String,
    pub total: usize,
    pub allowed: usize,
    pub unallowed: usize,
}

/// Report summary block.
#[derive(Debug, Clone, Serialize)]
pub struct Summary {
    pub files_scanned: usize,
    pub total: usize,
    pub allowed: usize,
    pub unallowed: usize,
    pub by_rule: Vec<RuleCount>,
}

/// The full lint report (serialized to `lint-report.json`).
#[derive(Debug, Serialize)]
pub struct LintReport {
    /// Report format version for future diffing.
    pub schema: u32,
    pub summary: Summary,
    pub findings: Vec<Finding>,
    /// `pub` items only tests or only the benchmark use.
    pub surface: Surface,
}

impl LintReport {
    /// The text `lint-report.json` holds: the report as one JSON line.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self).map(|text| text + "\n")
    }

    /// Human-readable rendering for terminal output.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            if f.allowed {
                out.push_str(&format!(
                    "  allowed  {}:{} [{}] {} (reason: {})\n",
                    f.file, f.line, f.rule, f.message, f.reason
                ));
            } else {
                out.push_str(&format!(
                    "  FINDING  {}:{} [{}] {}\n",
                    f.file, f.line, f.rule, f.message
                ));
            }
        }
        out.push_str(&format!(
            "smartpick-lint: {} files scanned, {} findings ({} allowed, {} unallowed); \
             surface: {} test-only, {} harness-only pub items\n",
            self.summary.files_scanned,
            self.summary.total,
            self.summary.allowed,
            self.summary.unallowed,
            self.surface.test_only.len(),
            self.surface.harness_only.len()
        ));
        out
    }
}

/// Runs every rule over one file, applying the allowlist, and appends
/// malformed-directive findings. This is the whole per-file pipeline —
/// the fixture tests drive it directly.
pub fn run_file(file: &SourceFile, ctx: &Context) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rule in all_rules() {
        let mut raw = Vec::new();
        rule.check(file, ctx, &mut raw);
        for mut f in raw {
            if let Some(d) = file.allow_for(&f.rule, f.line) {
                f.allowed = true;
                f.reason = d.reason.clone();
            }
            findings.push(f);
        }
    }
    // Malformed directives and directives naming unknown rules are
    // findings themselves — and can never be allowlisted.
    for m in &file.malformed_allows {
        findings.push(Finding::new(
            "malformed-allow",
            file,
            m.line,
            m.message.clone(),
        ));
    }
    for d in &file.allows {
        if !is_known_rule(&d.rule) {
            findings.push(Finding::new(
                "malformed-allow",
                file,
                d.line,
                format!("lint:allow names unknown rule `{}`", d.rule),
            ));
        }
    }
    findings
}

/// Runs every rule over every file and applies the allowlist.
pub fn run(ws: &Workspace) -> LintReport {
    let rules = all_rules();
    let mut findings = Vec::new();
    for file in &ws.files {
        findings.extend(run_file(file, &ws.ctx));
    }
    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));

    let mut by_rule: Vec<RuleCount> = rules
        .iter()
        .map(|r| RuleCount {
            rule: r.name().to_owned(),
            total: 0,
            allowed: 0,
            unallowed: 0,
        })
        .collect();
    by_rule.push(RuleCount {
        rule: "malformed-allow".to_owned(),
        total: 0,
        allowed: 0,
        unallowed: 0,
    });
    let mut allowed = 0usize;
    for f in &findings {
        if let Some(rc) = by_rule.iter_mut().find(|rc| rc.rule == f.rule) {
            rc.total += 1;
            if f.allowed {
                rc.allowed += 1;
            } else {
                rc.unallowed += 1;
            }
        }
        if f.allowed {
            allowed += 1;
        }
    }
    let total = findings.len();
    LintReport {
        schema: 2,
        summary: Summary {
            files_scanned: ws.files.len(),
            total,
            allowed,
            unallowed: total - allowed,
            by_rule,
        },
        findings,
        surface: surface(&ws.files, &ws.ctx),
    }
}
