//! Doc-link check: the narrative docs (`docs/*.md`, `README.md`,
//! `ROADMAP.md`) reference source files, committed records, and `just`
//! recipes. Those references rot silently — a renamed test file or
//! recipe leaves the docs pointing at nothing. This test walks every
//! markdown link and every backtick-quoted repo path / `just` recipe
//! and asserts the target exists. A backtick path may carry a 1-based
//! line locator, `path:line` (e.g. `crates/core/src/driver.rs:237`);
//! then the file must exist and have that line. Run via `just docs`
//! (the CI docs job).

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The markdown files under the doc-link contract.
fn doc_files() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files = vec![root.join("README.md"), root.join("ROADMAP.md")];
    let docs = root.join("docs");
    let entries = fs::read_dir(&docs).expect("docs/ exists");
    for entry in entries {
        let path = entry.expect("readable docs/ entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    files.sort();
    assert!(
        files.iter().any(|p| p.ends_with("docs/WIRE.md")),
        "docs/WIRE.md is part of the doc contract"
    );
    assert!(
        files.iter().any(|p| p.ends_with("docs/ARCHITECTURE.md")),
        "docs/ARCHITECTURE.md is part of the doc contract"
    );
    files
}

/// Recipe names defined in the justfile (lines like `name:` at column 0).
fn just_recipes() -> BTreeSet<String> {
    let text = fs::read_to_string(repo_root().join("justfile")).expect("justfile exists");
    let mut recipes = BTreeSet::new();
    for line in text.lines() {
        if line.starts_with(|c: char| c.is_ascii_alphabetic()) {
            if let Some(name) = line.split(':').next() {
                // `name: deps...` — the part before the colon, no spaces.
                if !name.contains(' ') && line.contains(':') {
                    recipes.insert(name.to_owned());
                }
            }
        }
    }
    assert!(
        recipes.contains("ci") && recipes.contains("verify"),
        "justfile parse found: {recipes:?}"
    );
    recipes
}

/// Markdown inline link targets: the `(...)` of `[...](...)`, with any
/// `#fragment` stripped. External links are skipped.
fn link_targets(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b']' && i + 1 < bytes.len() && bytes[i + 1] == b'(' {
            let start = i + 2;
            if let Some(len) = text[start..].find(')') {
                let target = &text[start..start + len];
                let target = target.split('#').next().unwrap_or("");
                if !target.is_empty()
                    && !target.starts_with("http://")
                    && !target.starts_with("https://")
                {
                    out.push(target.to_owned());
                }
                i = start + len;
            }
        }
        i += 1;
    }
    out
}

/// Backtick-quoted spans that look like repo paths: contain a `/`, no
/// spaces, and start with a known top-level directory or file. Spans
/// with glob/placeholder characters are skipped — they name patterns,
/// not files.
fn backtick_paths(text: &str) -> Vec<String> {
    const ROOTS: [&str; 6] = [
        "crates/",
        "docs/",
        "vendor/",
        "examples/",
        "tests/",
        ".github/",
    ];
    let mut out = Vec::new();
    for span in text.split('`').skip(1).step_by(2) {
        if span.contains(' ')
            || span.contains('*')
            || span.contains('<')
            || span.contains('{')
            || span.contains('!')
        {
            continue;
        }
        if ROOTS.iter().any(|r| span.starts_with(r)) {
            // Trim a trailing path separator (directory references).
            out.push(span.trim_end_matches('/').to_owned());
        }
    }
    out
}

/// Resolves one backtick path from the repo root. A span ending in `:`
/// and ASCII digits is `path:line`, the backtick form of a link's
/// `#fragment`: the file must exist and `line` must be in
/// `1..=line count`. Any other span (`foo.rs::name`) resolves whole.
fn resolve_span(root: &Path, span: &str) -> Result<(), &'static str> {
    let (path, line) = match span.rsplit_once(':') {
        Some((path, digits))
            if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) =>
        {
            (path, Some(digits))
        }
        _ => (span, None),
    };
    let file = root.join(path);
    if !file.exists() {
        return Err("missing path");
    }
    if let Some(digits) = line {
        let lines = fs::read_to_string(&file).map_or(0, |text| text.lines().count());
        let in_range = digits
            .parse::<usize>()
            .is_ok_and(|n| (1..=lines).contains(&n));
        if !in_range {
            return Err("line out of range");
        }
    }
    Ok(())
}

/// `just <recipe>` references in prose and code blocks.
fn just_references(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, _) in text.match_indices("just ") {
        let rest = &text[i + 5..];
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
            .collect();
        if !name.is_empty() {
            out.push(name);
        }
    }
    out
}

#[test]
fn every_doc_reference_resolves() {
    let root = repo_root();
    let recipes = just_recipes();
    let mut failures = Vec::new();
    for doc in doc_files() {
        let text = fs::read_to_string(&doc).expect("doc file reads");
        let doc_dir = doc.parent().unwrap_or(Path::new("."));
        let doc_name = doc
            .strip_prefix(&root)
            .unwrap_or(&doc)
            .display()
            .to_string();

        // Markdown links resolve relative to the containing file.
        for target in link_targets(&text) {
            if !doc_dir.join(&target).exists() {
                failures.push(format!("{doc_name}: broken link `{target}`"));
            }
        }
        // Backtick paths resolve from the repo root.
        for path in backtick_paths(&text) {
            if let Err(why) = resolve_span(&root, &path) {
                failures.push(format!("{doc_name}: {why} `{path}`"));
            }
        }
        // `just <recipe>` mentions name real recipes. "just" the word
        // (e.g. "just recipes") yields names like "recipes" only when
        // followed by recipe-shaped tokens; filter to misses that look
        // deliberate: a dash-joined or known-prefix token.
        for name in just_references(&text) {
            let looks_like_recipe = recipes.contains(&name)
                || name.contains('-')
                || [
                    "ci", "verify", "check", "bench", "lint", "fmt", "docs", "figures",
                ]
                .contains(&name.as_str());
            if looks_like_recipe && !recipes.contains(&name) {
                failures.push(format!("{doc_name}: unknown just recipe `{name}`"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "doc references rotted:\n  {}",
        failures.join("\n  ")
    );
}

#[test]
fn a_line_locator_names_an_existing_line() {
    let root = repo_root();
    assert_eq!(resolve_span(&root, "crates/core/src/driver.rs:237"), Ok(()));
    assert_eq!(
        resolve_span(&root, "crates/core/src/driver.rs:0"),
        Err("line out of range")
    );
    assert_eq!(
        resolve_span(&root, "crates/core/src/driver.rs:999999"),
        Err("line out of range")
    );
    assert_eq!(
        resolve_span(&root, "crates/core/src/nope.rs:1"),
        Err("missing path")
    );
    assert_eq!(
        resolve_span(&root, "crates/core/src/driver.rs:x"),
        Err("missing path")
    );
}

#[test]
fn readme_points_at_the_normative_docs() {
    let readme = fs::read_to_string(repo_root().join("README.md")).expect("README.md exists");
    for target in ["docs/WIRE.md", "docs/ARCHITECTURE.md"] {
        assert!(
            readme.contains(target),
            "README must link {target} — it replaced the inline wire spec"
        );
    }
}
