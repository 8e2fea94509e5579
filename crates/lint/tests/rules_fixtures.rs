//! Fixture tests: every rule has a positive case proving it fires, a
//! negative case proving it stays quiet, and an allowlisted case proving
//! `lint:allow` suppresses it (while keeping the finding in the report).
//!
//! The fixture `.rs` files are never compiled — they are lexed exactly
//! the way the engine lexes workspace sources, posing as
//! `crates/service/src/<fixture>.rs` so the crate-scoped rules apply.

use std::path::{Path, PathBuf};

use smartpick_lint::engine::{run, run_file, Workspace};
use smartpick_lint::rules::{collect_vendor_exports, Context, Finding, UseIndex};
use smartpick_lint::source::{FileKind, SourceFile};

fn lint_fixture(name: &str, src: &str, ctx: &Context) -> Vec<Finding> {
    let rel = format!("crates/service/src/{name}.rs");
    let file = SourceFile::parse_str(&rel, "service", FileKind::Src, src);
    run_file(&file, ctx)
}

/// Findings for `rule`, split into (unallowed lines, allowed lines).
fn split(findings: &[Finding], rule: &str) -> (Vec<u32>, Vec<u32>) {
    let mut unallowed = Vec::new();
    let mut allowed = Vec::new();
    for f in findings.iter().filter(|f| f.rule == rule) {
        if f.allowed {
            allowed.push(f.line);
        } else {
            unallowed.push(f.line);
        }
    }
    (unallowed, allowed)
}

/// Lines of the fixture marked `POSITIVE` — the expected unallowed set.
fn positive_lines(src: &str) -> Vec<u32> {
    src.lines()
        .enumerate()
        .filter(|(_, l)| l.contains("POSITIVE"))
        .map(|(i, _)| (i + 1) as u32)
        .collect()
}

#[test]
fn guard_across_blocking_fixture() {
    let src = include_str!("fixtures/guard_across_blocking.rs");
    let findings = lint_fixture("guard_across_blocking", src, &Context::default());
    let (unallowed, allowed) = split(&findings, "guard-across-blocking");
    assert_eq!(unallowed, positive_lines(src), "{findings:#?}");
    assert_eq!(allowed.len(), 1, "{findings:#?}");
}

#[test]
fn panic_free_fixture() {
    let src = include_str!("fixtures/panic_free.rs");
    let findings = lint_fixture("panic_free", src, &Context::default());
    let (unallowed, allowed) = split(&findings, "panic-free-server-paths");
    assert_eq!(unallowed, positive_lines(src), "{findings:#?}");
    assert_eq!(allowed.len(), 1, "{findings:#?}");
}

#[test]
fn one_lock_type_fixture() {
    let src = include_str!("fixtures/one_lock_type.rs");
    let findings = lint_fixture("one_lock_type", src, &Context::default());
    let (unallowed, allowed) = split(&findings, "one-lock-type");
    assert_eq!(unallowed, positive_lines(src), "{findings:#?}");
    assert_eq!(allowed.len(), 1, "{findings:#?}");
}

#[test]
fn bounded_channels_fixture() {
    let src = include_str!("fixtures/bounded_channels.rs");
    let findings = lint_fixture("bounded_channels", src, &Context::default());
    let (unallowed, allowed) = split(&findings, "bounded-channels-only");
    assert_eq!(unallowed, positive_lines(src), "{findings:#?}");
    assert_eq!(allowed.len(), 1, "{findings:#?}");
}

#[test]
fn shim_conformance_fixture() {
    let vendor = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("vendor");
    let ctx = Context {
        vendor_exports: collect_vendor_exports(&vendor),
        ..Context::default()
    };
    assert!(
        ctx.vendor_exports.contains_key("serde"),
        "vendor scan found: {:?}",
        ctx.vendor_exports.keys().collect::<Vec<_>>()
    );
    let src = include_str!("fixtures/shim_conformance.rs");
    let findings = lint_fixture("shim_conformance", src, &ctx);
    let (unallowed, allowed) = split(&findings, "shim-conformance");
    assert_eq!(unallowed, positive_lines(src), "{findings:#?}");
    assert_eq!(allowed.len(), 1, "{findings:#?}");
}

#[test]
fn loop_thread_nonblocking_fixture() {
    // Scoped to one file, so the fixture poses as it — and the same
    // source anywhere else (an executor's file) is not a finding.
    let src = include_str!("fixtures/loop_thread_nonblocking.rs");
    let as_file = |rel: &str| {
        let file = SourceFile::parse_str(rel, "wire", FileKind::Src, src);
        run_file(&file, &Context::default())
    };
    let findings = as_file("crates/wire/src/reactor.rs");
    let (unallowed, allowed) = split(&findings, "loop-thread-nonblocking");
    assert_eq!(unallowed, positive_lines(src), "{findings:#?}");
    assert_eq!(allowed.len(), 1, "{findings:#?}");
    let elsewhere = as_file("crates/wire/src/server.rs");
    let (unallowed, allowed) = split(&elsewhere, "loop-thread-nonblocking");
    assert!(unallowed.is_empty() && allowed.is_empty(), "{elsewhere:#?}");
}

#[test]
fn obs_crate_is_in_scope_for_the_concurrency_rules() {
    // The obs crate serves the same hot paths as service/wire: the
    // panic-safety and concurrency rules must fire there too.
    let src = "fn sample(xs: &[u64], i: usize) -> u64 { xs[i] }\n\
               fn wait(g: std::sync::MutexGuard<u32>, rx: &std::sync::mpsc::Receiver<u32>) {\n\
               let _x = *g;\n\
               let _ = rx.recv();\n\
               }\n";
    let file = SourceFile::parse_str("crates/obs/src/fixture.rs", "obs", FileKind::Src, src);
    let findings = run_file(&file, &Context::default());
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "panic-free-server-paths" && !f.allowed),
        "{findings:#?}"
    );
    let unbounded = "use std::sync::mpsc::channel;\n\
                     fn f() { let (_tx, _rx) = channel(); }\n";
    let file = SourceFile::parse_str("crates/obs/src/chan.rs", "obs", FileKind::Src, unbounded);
    let findings = run_file(&file, &Context::default());
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "bounded-channels-only" && !f.allowed),
        "{findings:#?}"
    );
}

#[test]
fn store_crate_is_in_scope_for_the_concurrency_rules() {
    // The store crate sits on the retrain workers' write path and under
    // startup recovery: an unwrap or an unbounded channel there is a
    // server-path violation like anywhere else in the serving stack.
    let src = "fn header(bytes: &[u8], at: usize) -> u8 { bytes[at] }\n\
               fn decode(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let file = SourceFile::parse_str("crates/store/src/fixture.rs", "store", FileKind::Src, src);
    let findings = run_file(&file, &Context::default());
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "panic-free-server-paths" && !f.allowed),
        "{findings:#?}"
    );
    let unbounded = "use std::sync::mpsc::channel;\n\
                     fn f() { let (_tx, _rx) = channel(); }\n";
    let file = SourceFile::parse_str(
        "crates/store/src/chan.rs",
        "store",
        FileKind::Src,
        unbounded,
    );
    let findings = run_file(&file, &Context::default());
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "bounded-channels-only" && !f.allowed),
        "{findings:#?}"
    );
}

#[test]
fn rules_out_of_scope_crates_stay_quiet() {
    // The panic-safety rules are scoped to server crates: the same
    // violations in (say) the figures tooling are not findings.
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
    let file = SourceFile::parse_str("crates/bench/src/lib.rs", "bench", FileKind::Src, src);
    let findings = run_file(&file, &Context::default());
    assert!(
        findings.iter().all(|f| f.rule != "panic-free-server-paths"),
        "{findings:#?}"
    );
}

#[test]
fn malformed_and_unknown_allows_are_findings() {
    let src = "// lint:allow(one-lock-type)\n\
               // lint:allow(no-such-rule, reason = \"typo\")\n\
               fn f() {}\n";
    let findings = lint_fixture("malformed", src, &Context::default());
    let (unallowed, _) = split(&findings, "malformed-allow");
    assert_eq!(unallowed, vec![1, 2], "{findings:#?}");
}

/// Lines of a multi-rule fixture marked `POSITIVE(rule)` for one rule.
fn positive_lines_for(src: &str, rule: &str) -> Vec<u32> {
    let marker = format!("POSITIVE({rule})");
    src.lines()
        .enumerate()
        .filter(|(_, l)| l.contains(&marker))
        .map(|(i, _)| (i + 1) as u32)
        .collect()
}

#[test]
fn residency_module_fixture() {
    // The residency module (eviction sweep, single-flight rehydration)
    // is service-crate code, so every crate-scoped rule covers its
    // idioms: no driver guard across the persist handoff, no `std::sync`
    // slot lock (its `.lock().unwrap()` is a poisoning cascade), runtime
    // indexing on the evict path can panic a server thread — while the
    // rehydration condvar wait stays a non-finding by design.
    let src = include_str!("fixtures/residency.rs");
    let findings = lint_fixture("residency", src, &Context::default());
    for rule in [
        "guard-across-blocking",
        "one-lock-type",
        "panic-free-server-paths",
    ] {
        let (unallowed, _) = split(&findings, rule);
        assert_eq!(
            unallowed,
            positive_lines_for(src, rule),
            "{rule}: {findings:#?}"
        );
    }
    let (_, allowed) = split(&findings, "guard-across-blocking");
    assert_eq!(allowed.len(), 1, "{findings:#?}");
}

/// An in-memory workspace; files under `benchmark/` are indexed as the
/// harness, never linted.
fn workspace(files: &[(&str, FileKind, &str)]) -> Workspace {
    let (harness, linted): (Vec<_>, Vec<_>) = files
        .iter()
        .map(|&(rel, kind, src)| {
            let crate_name = rel.split('/').nth(1).unwrap_or("smartpick");
            SourceFile::parse_str(rel, crate_name, kind, src)
        })
        .partition(|f| f.rel.starts_with("benchmark/"));
    let ctx = Context {
        uses: UseIndex::build(&linted, &harness),
        ..Context::default()
    };
    Workspace {
        root: PathBuf::new(),
        files: linted,
        ctx,
    }
}

#[test]
fn unreferenced_pub_classes() {
    let ml = "pub fn dead_fn() {} // POSITIVE\n\
              pub const DEAD_CONST: u32 = 1; // POSITIVE\n\
              pub struct Holder {\n\
                  pub dead_field: u32, // POSITIVE\n\
                  pub live_field: u32,\n\
              }\n\
              pub enum Mode {\n\
                  Live,\n\
                  DeadVariant, // POSITIVE\n\
              }\n\
              pub fn cross_crate(h: &Holder) -> u32 { h.live_field }\n\
              pub fn only_tested() {}\n\
              pub fn only_benchmarked() {}\n\
              pub fn own_tests_only() {} // POSITIVE\n\
              /// `documented_only` is named here and in a string literal.\n\
              pub fn documented_only() {} // POSITIVE\n\
              pub fn only_imported() {} // POSITIVE\n\
              pub(crate) fn narrowed() {}\n\
              // lint:allow(unreferenced-pub, reason = \"kept for docs/WIRE.md\")\n\
              pub fn allowed_dead() {}\n\
              #[cfg(test)]\n\
              mod tests {\n\
                  #[test]\n\
                  fn t() { super::own_tests_only(); }\n\
              }\n";
    let core = "use smartpick_ml::only_imported;\n\
                pub fn caller(h: &smartpick_ml::Holder) -> usize {\n\
                    let _ = smartpick_ml::Mode::Live;\n\
                    smartpick_ml::cross_crate(h) as usize + \"documented_only\".len()\n\
                }\n";
    let ws = workspace(&[
        ("crates/ml/src/lib.rs", FileKind::Src, ml),
        ("crates/core/src/lib.rs", FileKind::Src, core),
        (
            "crates/ml/tests/t.rs",
            FileKind::Test,
            "#[test]\nfn t() { smartpick_ml::only_tested(); }\n",
        ),
        (
            "benchmark/src/main.rs",
            FileKind::Src,
            "fn main() { smartpick_ml::only_benchmarked(); }\n",
        ),
    ]);
    let report = run(&ws);
    let in_ml: Vec<Finding> = report
        .findings
        .iter()
        .filter(|f| f.file == "crates/ml/src/lib.rs")
        .cloned()
        .collect();
    let (unallowed, allowed) = split(&in_ml, "unreferenced-pub");
    assert_eq!(unallowed, positive_lines(ml), "{in_ml:#?}");
    assert_eq!(allowed, vec![20], "{in_ml:#?}");
    let allowed = in_ml.iter().find(|f| f.allowed).unwrap();
    assert_eq!(allowed.reason, "kept for docs/WIRE.md");

    // `caller` is used nowhere either; nothing else in core is a finding.
    let in_core: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.file == "crates/core/src/lib.rs")
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(
        in_core,
        vec![
            "`pub fn caller` is used nowhere outside its own file's tests; \
              delete it or narrow its visibility"
        ]
    );

    let items = |list: &[smartpick_lint::rules::SurfaceItem]| {
        list.iter()
            .map(|s| (s.item.clone(), s.used_in.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        items(&report.surface.test_only),
        vec![(
            "only_tested".to_owned(),
            vec!["crates/ml/tests/t.rs".to_owned()]
        )]
    );
    assert_eq!(
        items(&report.surface.harness_only),
        vec![(
            "only_benchmarked".to_owned(),
            vec!["benchmark/src/main.rs".to_owned()]
        )]
    );
}

#[test]
fn unreferenced_pub_names_methods_by_their_owner() {
    let src = "pub struct Gauge;\n\
               impl<T> From<T> for Gauge { fn from(_: T) -> Gauge { Gauge } }\n\
               impl Gauge {\n\
                   pub fn set_max(&self) {}\n\
               }\n";
    let ws = workspace(&[("crates/obs/src/lib.rs", FileKind::Src, src)]);
    let report = run(&ws);
    let messages: Vec<_> = report.findings.iter().map(|f| &f.message).collect();
    assert_eq!(messages.len(), 1, "{messages:#?}");
    assert!(
        messages[0].contains("`pub method Gauge::set_max`"),
        "{messages:#?}"
    );
}
