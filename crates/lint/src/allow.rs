//! `// lint:allow(...)` directive parsing.
//!
//! Two forms, both requiring a reason:
//!
//! * `// lint:allow(rule-name, reason = "why this site is safe")` —
//!   line-scoped: a trailing comment covers its own line; a standalone
//!   comment covers the next line that holds code.
//! * `// lint:allow-file(rule-name, reason = "...")` — covers the whole
//!   file (also valid inside `//!` docs).
//!
//! A directive that names an unknown rule or omits the reason is itself
//! reported as a finding (`malformed-allow`), so a typo can never
//! silently disable a gate.

use crate::lexer::Comment;

/// One parsed allow directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// The rule the directive suppresses.
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
    /// Whether the directive covers the whole file.
    pub file_scope: bool,
    /// 1-based line of the comment itself.
    pub line: u32,
    /// The line of code the directive covers (for line-scoped
    /// directives): the comment's own line when trailing, otherwise the
    /// next code line (filled in by the source model).
    pub covers_line: u32,
    /// Whether the comment trails code on its own line.
    pub trailing: bool,
}

/// A directive that could not be parsed; reported as a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalformedAllow {
    /// 1-based line of the offending comment.
    pub line: u32,
    /// What is wrong with it.
    pub message: String,
}

/// What scanning one comment produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsedAllow {
    /// Not an allow directive at all.
    NotADirective,
    /// A well-formed directive.
    Ok(AllowDirective),
    /// Something that tried to be a directive and failed.
    Malformed(MalformedAllow),
}

/// Scans one comment for an allow directive.
pub fn parse_allow(comment: &Comment) -> ParsedAllow {
    // Strip doc-comment markers and leading whitespace: `/// lint:allow`
    // and `//! lint:allow-file` are both acceptable hosts.
    let text = comment.text.trim_start_matches(['/', '!']).trim_start();
    let (file_scope, rest) = if let Some(rest) = text.strip_prefix("lint:allow-file") {
        (true, rest)
    } else if let Some(rest) = text.strip_prefix("lint:allow") {
        (false, rest)
    } else {
        return ParsedAllow::NotADirective;
    };
    let malformed = |message: String| {
        ParsedAllow::Malformed(MalformedAllow {
            line: comment.line,
            message,
        })
    };
    let Some(rest) = rest.trim_start().strip_prefix('(') else {
        return malformed("lint:allow must be followed by `(rule, reason = \"...\")`".to_owned());
    };
    let Some(end) = rest.rfind(')') else {
        return malformed("lint:allow directive is missing its closing `)`".to_owned());
    };
    let inner = &rest[..end];
    let (rule, tail) = match inner.find(',') {
        Some(comma) => (inner[..comma].trim(), inner[comma + 1..].trim()),
        None => (inner.trim(), ""),
    };
    if rule.is_empty() {
        return malformed("lint:allow directive names no rule".to_owned());
    }
    let Some(reason_expr) = tail.strip_prefix("reason") else {
        return malformed(format!(
            "lint:allow({rule}) has no `reason = \"...\"` — every allow must say why"
        ));
    };
    let reason_expr = reason_expr.trim_start();
    let Some(reason_expr) = reason_expr.strip_prefix('=') else {
        return malformed(format!("lint:allow({rule}): expected `reason = \"...\"`"));
    };
    let reason_expr = reason_expr.trim();
    let reason = reason_expr
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .unwrap_or(reason_expr)
        .trim();
    if reason.is_empty() {
        return malformed(format!(
            "lint:allow({rule}) has an empty reason — every allow must say why"
        ));
    }
    ParsedAllow::Ok(AllowDirective {
        rule: rule.to_owned(),
        reason: reason.to_owned(),
        file_scope,
        line: comment.line,
        covers_line: comment.line, // standalone directives are re-aimed by the source model
        trailing: comment.trailing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comment(text: &str, trailing: bool) -> Comment {
        Comment {
            text: text.to_owned(),
            line: 7,
            trailing,
        }
    }

    #[test]
    fn parses_line_and_file_directives() {
        let ParsedAllow::Ok(d) = parse_allow(&comment(
            " lint:allow(panic-free-server-paths, reason = \"infallible: index is modulo len\")",
            true,
        )) else {
            panic!("expected Ok");
        };
        assert_eq!(d.rule, "panic-free-server-paths");
        assert_eq!(d.reason, "infallible: index is modulo len");
        assert!(!d.file_scope);
        assert!(d.trailing);

        let ParsedAllow::Ok(d) = parse_allow(&comment(
            "! lint:allow-file(shim-conformance, reason = \"generated fixtures\")",
            false,
        )) else {
            panic!("expected Ok");
        };
        assert!(d.file_scope);
    }

    #[test]
    fn missing_reason_is_malformed() {
        assert!(matches!(
            parse_allow(&comment(" lint:allow(one-lock-type)", false)),
            ParsedAllow::Malformed(_)
        ));
        assert!(matches!(
            parse_allow(&comment(" lint:allow(one-lock-type, reason = \"\")", false)),
            ParsedAllow::Malformed(_)
        ));
        assert!(matches!(
            parse_allow(&comment(" lint:allow(, reason = \"x\")", false)),
            ParsedAllow::Malformed(_)
        ));
    }

    #[test]
    fn ordinary_comments_are_ignored() {
        assert_eq!(
            parse_allow(&comment(" just words about locks", false)),
            ParsedAllow::NotADirective
        );
    }
}
