//! Fixture tests: every rule has a positive case proving it fires, a
//! negative case proving it stays quiet, and an allowlisted case proving
//! `lint:allow` suppresses it (while keeping the finding in the report).
//!
//! The fixture `.rs` files are never compiled — they are lexed exactly
//! the way the engine lexes workspace sources, posing as
//! `crates/service/src/<fixture>.rs` so the crate-scoped rules apply.

use std::path::Path;

use smartpick_lint::engine::run_file;
use smartpick_lint::rules::{collect_vendor_exports, Context, Finding};
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
fn poison_recovery_fixture() {
    let src = include_str!("fixtures/poison_recovery.rs");
    let findings = lint_fixture("poison_recovery", src, &Context::default());
    let (unallowed, allowed) = split(&findings, "poison-recovery");
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
    let src = "// lint:allow(poison-recovery)\n\
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
    // idioms: no driver guard across the persist handoff, bare
    // `.lock().unwrap()` on a slot is a poisoning cascade, runtime
    // indexing on the evict path can panic a server thread — while the
    // rehydration condvar wait stays a non-finding by design.
    let src = include_str!("fixtures/residency.rs");
    let findings = lint_fixture("residency", src, &Context::default());
    for rule in [
        "guard-across-blocking",
        "poison-recovery",
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
