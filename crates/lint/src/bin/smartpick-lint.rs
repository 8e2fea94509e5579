//! The smartpick-lint CLI.
//!
//! ```text
//! smartpick-lint [--root PATH] [--json PATH] [--list-rules]
//! ```
//!
//! Exit codes: 0 — clean (or every finding allowed); 1 — unallowed
//! findings; 2 — usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use smartpick_lint::{all_rules, engine, find_workspace_root};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json: Option<PathBuf> = None;
    let mut list_rules = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root requires a path"),
            },
            "--json" => match args.next() {
                Some(p) => json = Some(PathBuf::from(p)),
                None => return usage("--json requires a path"),
            },
            "--list-rules" => list_rules = true,
            "--help" | "-h" => {
                println!("usage: smartpick-lint [--root PATH] [--json PATH] [--list-rules]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    if list_rules {
        for rule in all_rules() {
            println!("{:<26} {}", rule.name(), rule.description());
        }
        return ExitCode::SUCCESS;
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => return usage(&format!("cannot determine cwd: {e}")),
            };
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => return usage("no workspace Cargo.toml found; pass --root"),
            }
        }
    };

    let ws = match engine::load_workspace(&root) {
        Ok(ws) => ws,
        Err(e) => return usage(&format!("cannot load workspace at {}: {e}", root.display())),
    };
    let report = engine::run(&ws);
    print!("{}", report.render_human());

    if let Some(path) = json {
        let json_text = match report.to_json() {
            Ok(t) => t,
            Err(e) => return usage(&format!("cannot serialize report: {e:?}")),
        };
        if let Err(e) = std::fs::write(&path, json_text) {
            return usage(&format!("cannot write {}: {e}", path.display()));
        }
        println!("wrote {}", path.display());
    }

    if report.summary.unallowed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("smartpick-lint: {message}");
    ExitCode::from(2)
}
