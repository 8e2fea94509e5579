//! The serving closure — every workspace crate `smartpick_wire` links —
//! predicts and never executes or benchmarks: no crate in it names the
//! workload catalog, the paper's baselines or the figure harness among
//! its `[dependencies]`. Tests and tools may link those crates through
//! `[dev-dependencies]`; a server binary never does.
//!
//! The closure is walked from `crates/wire/Cargo.toml` through each
//! crate's `[dependencies]` table, resolving names through the root
//! manifest's `[workspace.dependencies]` paths, so a new edge is caught
//! wherever it is added.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// Crates the serving closure must not link.
const FORBIDDEN: [&str; 3] = [
    "smartpick_workloads",
    "smartpick_baselines",
    "smartpick_bench",
];

/// The dependency names listed in `table` (`[dependencies]`,
/// `[workspace.dependencies]`, ...) of a manifest, each with the rest of
/// its line.
fn table<'a>(manifest: &'a str, table: &str) -> Vec<(&'a str, &'a str)> {
    let header = format!("[{table}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .filter_map(|line| line.split_once('='))
        .map(|(name, spec)| (name.trim(), spec.trim()))
        .collect()
}

/// Workspace crate name → its directory, from the root manifest.
fn workspace_paths(root: &Path) -> BTreeMap<String, String> {
    let manifest = fs::read_to_string(root.join("Cargo.toml")).unwrap();
    table(&manifest, "workspace.dependencies")
        .into_iter()
        .filter_map(|(name, spec)| {
            let path = spec.split_once("path = \"")?.1.split('"').next()?;
            path.starts_with("crates/")
                .then(|| (name.to_owned(), path.to_owned()))
        })
        .collect()
}

/// Every workspace crate `start` links through `[dependencies]`, with the
/// dependency names each one lists.
fn closure(root: &Path, start: &str) -> BTreeMap<String, Vec<String>> {
    let paths = workspace_paths(root);
    let mut seen = BTreeMap::new();
    let mut todo = vec![start.to_owned()];
    while let Some(name) = todo.pop() {
        if seen.contains_key(&name) {
            continue;
        }
        let dir = &paths[&name];
        let manifest = fs::read_to_string(root.join(dir).join("Cargo.toml")).unwrap();
        let deps: Vec<String> = table(&manifest, "dependencies")
            .into_iter()
            .map(|(dep, _)| dep.to_owned())
            .collect();
        todo.extend(deps.iter().filter(|d| paths.contains_key(*d)).cloned());
        seen.insert(name, deps);
    }
    seen
}

#[test]
fn no_serving_crate_links_the_catalog_the_baselines_or_the_harness() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let closure = closure(root, "smartpick_wire");
    let offending: Vec<String> = closure
        .iter()
        .flat_map(|(krate, deps)| {
            deps.iter()
                .filter(|d| FORBIDDEN.contains(&d.as_str()))
                .map(move |d| format!("{krate} -> {d}"))
        })
        .collect();
    assert!(
        offending.is_empty(),
        "serving crates link {offending:?}; move each to [dev-dependencies]"
    );
    // The walk really covered the stack a request passes through.
    let crates: BTreeSet<&str> = closure.keys().map(String::as_str).collect();
    for expected in [
        "smartpick_wire",
        "smartpick_service",
        "smartpick_store",
        "smartpick_obs",
        "smartpick_core",
        "smartpick_ml",
        "smartpick_engine",
        "smartpick_cloudsim",
        "smartpick_sqlmeta",
    ] {
        assert!(
            crates.contains(expected),
            "{expected} missing from {crates:?}"
        );
    }
}
