//! The tier-1 gate: the whole workspace must lint clean. Any unallowed
//! finding fails the ordinary `cargo test` run — the same check CI runs
//! via `just lint-smartpick` — and the committed `lint-report.json` must
//! be what that recipe writes today.

use std::path::{Path, PathBuf};

use smartpick_lint::{load_workspace, run};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

#[test]
fn workspace_has_no_unallowed_findings() {
    let ws = load_workspace(&root()).expect("workspace loads");
    assert!(
        ws.files.len() > 50,
        "workspace walk looks broken: only {} files found",
        ws.files.len()
    );
    let report = run(&ws);
    assert_eq!(
        report.summary.unallowed,
        0,
        "unallowed lint findings:\n{}",
        report.render_human()
    );
}

#[test]
fn committed_report_is_current() {
    let root = root();
    let fresh = run(&load_workspace(&root).expect("workspace loads"))
        .to_json()
        .expect("report serialises");
    let committed =
        std::fs::read_to_string(root.join("lint-report.json")).expect("lint-report.json reads");
    assert!(
        fresh == committed,
        "lint-report.json is stale: run `just lint-smartpick` and commit the result"
    );
}
